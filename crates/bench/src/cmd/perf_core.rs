//! `perf core`: simulator-core throughput — events/sec per NetPIPE
//! scenario, plus the deep-queue machines.
//!
//! Every figure the repo reproduces is replayed through `sim::Engine`;
//! this measures how fast that core chews through each scenario of
//! `scenario_matrix()` (host wall time, simulated work held fixed) and
//! writes the result to `BENCH_core.json`. Event counts are
//! deterministic, so two builds of the same source always measure
//! identical simulated work — any events/sec delta is the simulator
//! itself.
//!
//! The NetPIPE scenarios keep a handful of events pending. The `deep/`
//! scenarios ([`crate::machines::DEEP`]) are where the event queue's
//! depth and the sinks' price show; their event digests are pinned, so a
//! queue that reorders anything or a sink that perturbs the run fails
//! here before it is timed. The observed twin's wall time over the plain
//! row's is `sink_overhead`: the two run as [`SINK_PAIRS`] alternating
//! pairs, and the median pair's ratio is what is written and gated, so a
//! box that slows down for a while moves both halves of a pair instead of
//! deciding the verdict (one run of each read 1.55–1.94 on one unchanged
//! build).
//!
//! A scenario the `--out` file already lists keeps that file's
//! events/sec as `before_events_per_sec` (and the file's `sink_overhead`
//! is kept as `before_sink_overhead`), so the committed JSON holds a
//! before/after row for whatever change regenerated it.

use xt3_netpipe::runner::{build_engine, scenario_matrix, scenario_name, NetpipeConfig};
use xt3_node::machine::Machine;
use xt3_sim::{Engine, RunOutcome};
use xt3_telemetry::JsonWriter;

use crate::cli::{positive, write_file, Args, CmdResult};
use crate::gate::{self, Baseline};
use crate::machines::{DEEP, OBSERVED, PLAIN};
use crate::stopwatch::{best_of, time};

/// The arguments, and what each flag means.
pub const USAGE: &str = "\
[--quick] [--reps N] [--max-size BYTES] [--out PATH] [--check PATH]

--quick           small messages + 1 rep (CI smoke configuration; the
                  deep-queue machines are fixed-size and still run)
--reps N          timing repetitions per scenario, best-of (default 3)
--max-size BYTES  NetPIPE schedule size cap (default 65536)
--out PATH        JSON output path (default BENCH_core.json)
--check PATH      hold the aggregate and each deep scenario to the floor
                  and sink_overhead to the ceiling of gate::check_core,
                  against a committed BENCH_core.json";

/// Alternating plain/observed pairs `sink_overhead` is the median of.
const SINK_PAIRS: usize = 3;

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

/// One timed `engine.run()` of a freshly built engine: events and
/// seconds. Its event digest must equal `pinned` where one is given.
fn run_once(name: &str, pinned: Option<u64>, build: impl Fn() -> Engine<Machine>) -> (u64, f64) {
    let mut engine = build();
    let (outcome, wall) = time(|| engine.run());
    assert_eq!(outcome, RunOutcome::Drained, "{name}: run must drain");
    if let Some(pinned) = pinned {
        let digest = engine.digest();
        assert_eq!(
            digest, pinned,
            "{name}: event digest {digest:#018x} differs from the pinned {pinned:#018x}"
        );
    }
    (engine.dispatched(), wall)
}

/// Best-of-`reps` [`run_once`].
fn measure(
    name: String,
    reps: u32,
    pinned: Option<u64>,
    build: impl Fn() -> Engine<Machine>,
) -> Row {
    let (events, wall_s) = best_of(reps, || run_once(&name, pinned, &build));
    row(name, events, wall_s, pinned)
}

/// A row of `events` in `wall_s`, printed.
fn row(name: String, events: u64, wall_s: f64, pinned: Option<u64>) -> Row {
    let events_per_sec = events as f64 / wall_s;
    println!(
        "{:<28} {:>10} {:>10.2} {:>14.0}",
        name,
        events,
        wall_s * 1e3,
        events_per_sec
    );
    Row {
        name,
        events,
        wall_s,
        events_per_sec,
        digest: pinned,
    }
}

/// Measure, write `--out`, apply `--check`.
pub fn run(mut args: Args) -> CmdResult {
    let quick = args.flag("--quick");
    let mut reps = args.parsed("--reps", positive::<u32>)?.unwrap_or(3);
    let max_size = args.parsed("--max-size", positive::<u64>)?;
    let mut max_size = max_size.unwrap_or(64 * 1024);
    let out = args.value("--out")?;
    let out = out.unwrap_or_else(|| "BENCH_core.json".into());
    let check = args.value("--check")?;
    args.finish()?;
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

    // The 512-node twins first, in alternating pairs: each row's best
    // run, and the median pair's ratio.
    let [plain, observed] = [PLAIN, OBSERVED].map(|name| {
        let deep = DEEP.into_iter().find(|d| d.0 == name);
        deep.expect("both 512-node rows are in DEEP")
    });
    let mut walls = [Vec::new(), Vec::new()];
    let mut events = [0; 2];
    for _ in 0..SINK_PAIRS {
        for (i, (name, build, pinned)) in [plain, observed].into_iter().enumerate() {
            let (n, wall) = run_once(name, Some(pinned), || build().into_engine());
            events[i] = n;
            walls[i].push(wall);
        }
    }
    let mut pairs: Vec<f64> = walls[1].iter().zip(&walls[0]).map(|(o, p)| o / p).collect();
    pairs.sort_by(f64::total_cmp);
    let sink_overhead = pairs[SINK_PAIRS / 2];
    for (i, (name, _, pinned)) in [plain, observed].into_iter().enumerate() {
        let best = walls[i].iter().copied().fold(f64::INFINITY, f64::min);
        rows.push(row(name.to_string(), events[i], best, Some(pinned)));
    }
    let twins = |name: &str| name == PLAIN || name == OBSERVED;
    for (name, build, pinned) in DEEP.into_iter().filter(|d| !twins(d.0)) {
        rows.push(measure(name.to_string(), reps, Some(pinned), || {
            build().into_engine()
        }));
    }

    println!();
    println!(
        "aggregate (netpipe): {total_events} events in {:.1} ms -> {:.0} events/sec",
        total_wall * 1e3,
        aggregate
    );
    let pairs_text: Vec<String> = pairs.iter().map(|r| format!("{r:.3}")).collect();
    println!(
        "sink_overhead = wall({OBSERVED}) / wall({PLAIN}), median of {SINK_PAIRS} alternating pairs [{}] = {sink_overhead:.3}",
        pairs_text.join(", ")
    );

    let before = Baseline::load(&out).ok();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut w = JsonWriter::new();
    w.object(true)
        .field_str("bench", "core-events-per-sec")
        .field("quick", quick)
        .field("max_size", max_size)
        .field("reps", reps)
        .field("cores", cores)
        .field("aggregate_events_per_sec", format_args!("{aggregate:.0}"))
        .field("sink_overhead", format_args!("{sink_overhead:.3}"))
        .field_str("sink_overhead_pairs", &pairs_text.join(" "));
    if let Some(was) = before.as_ref().and_then(|b| b.number("sink_overhead").ok()) {
        w.field("before_sink_overhead", format_args!("{was:.3}"));
    }
    w.key("scenarios").array(true);
    for r in &rows {
        w.object(false)
            .field_str("name", &r.name)
            .field("events", r.events)
            .field("wall_ms", format_args!("{:.3}", r.wall_s * 1e3))
            .field("events_per_sec", format_args!("{:.0}", r.events_per_sec));
        let was = |b: &Baseline| b.row_number("scenarios", "name", &r.name, "events_per_sec");
        if let Some(rate) = before.as_ref().and_then(|b| was(b).ok()) {
            w.field("before_events_per_sec", format_args!("{rate:.0}"));
        }
        if let Some(digest) = r.digest {
            w.field_str("digest", &format!("{digest:#018x}"));
        }
        w.end();
    }
    w.end().end();
    write_file(&out, w.finish())?;
    println!("wrote {out}");

    if let Some(path) = check {
        let deep: Vec<(&str, f64)> = rows
            .iter()
            .filter(|r| r.digest.is_some())
            .map(|r| (r.name.as_str(), r.events_per_sec))
            .collect();
        gate::check_core(&Baseline::load(&path)?, aggregate, &deep, sink_overhead)?;
        println!("regression check passed");
    }
    Ok(())
}
