//! Heap footprint of the machine model at Red Storm scale, measured
//! from allocator statistics: a counting `#[global_allocator]` wraps
//! the system allocator and tracks live and peak heap bytes, so the
//! numbers are exact (not RSS, which rounds to pages and includes the
//! binary).
//!
//! For each slice size the bench records the heap needed to *construct*
//! the machine and the peak while *running* one neighbor-push round,
//! both as absolute bytes and bytes per node. The full 10,368-node
//! machine (27x16x24) is the headline row: the demand-allocation work
//! (lazy pending pools, on-demand routing, write-materialized address
//! spaces) is accountable to keeping it far under the 4 GB line.
//!
//! The default sweep ends with the **observed row**: the contended
//! 8x8x8 all-to-all with the registry, the causal log and the link
//! series on — peak bytes of the run plus attribution table and series
//! JSON, and what each sink holds at the end per thing it stored (bytes
//! per span, per causal record, per non-zero series bucket; each read
//! off a run with only that sink on, against a run with none).
//!
//! The JSON it writes carries the rows of the file it replaces as
//! `before_*`, so the committed `BENCH_mem.json` holds a before/after
//! pair for whatever change regenerated it. `--check PATH` is the
//! regression gate: the counts are allocator-exact and the run is
//! deterministic, so any size whose peak bytes per node — or any number
//! of the observed row — exceeds the committed value by more than 2 %
//! fails.
//!
//! `--series` measures the same sweep with the per-link congestion
//! series enabled and enforces the observability heap envelope instead:
//! at every size the instrumented peak must stay within
//! [`gate::SERIES_BYTES_PER_NODE`] a node of the committed
//! `BENCH_mem.json` plain peak — demand-allocated series lanes may cost heap proportional to
//! *traffic*, never a dense per-node tax.
//!
//! This is its own executable, not an `xt3-bench` subcommand, because of
//! the allocator: a counting `#[global_allocator]` is per-binary, and
//! inside `xt3-bench` its two atomic updates per allocation would sit
//! under every `perf` timing.
//!
//! ```text
//! cargo run --release -p xt3-bench --bin mem_footprint -- [--dims X Y Z] [--out PATH]
//!                                                         [--series] [--check PATH]
//!                                                         [--histogram]
//! ```

use std::hint::black_box;
use xt3_bench::cli::{self, Args, CmdResult};
use xt3_bench::gate::{self, Baseline};
use xt3_bench::heap::{self, Census, CountingAlloc};
use xt3_bench::machines::{self, full_machine, NEIGHBOR_MSG};
use xt3_node::node::Node;
use xt3_sim::RunOutcome;
use xt3_telemetry::{attribute_occupancy, JsonWriter, LinkBucket, LinkSeries, SeriesConfig};
use xt3_topology::coord::Dims;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One slice's measurement.
struct Row {
    dims: Dims,
    nodes: usize,
    built_bytes: u64,
    peak_bytes: u64,
    events: u64,
    /// What is live once the run has drained, the machine still whole.
    live: Census,
}

impl Row {
    /// Live heap blocks per node after the run (whole blocks: the few
    /// the machine holds once — queue, fabric, the node vector — do not
    /// make one more per node).
    fn live_blocks_per_node(&self) -> u64 {
        self.live.blocks() / self.nodes as u64
    }

    /// The two numbers of this row the gate holds exactly.
    fn counts(&self) -> [gate::MemCount; 2] {
        let node_bytes = std::mem::size_of::<Node>() as u64;
        [
            (self.nodes, "node_bytes", node_bytes),
            (
                self.nodes,
                "live_blocks_per_node",
                self.live_blocks_per_node(),
            ),
        ]
    }

    /// The histogram DESIGN.md §8 quotes: one line per request size that
    /// at least one node in a hundred holds a block of, and one for
    /// everything else — rarer sizes and the blocks a machine holds once.
    fn print_histogram(&self) {
        let nodes = self.nodes as f64;
        println!(
            "\nlive after the run, {} nodes ({} B Node inline, {} blocks/node):",
            self.nodes,
            std::mem::size_of::<Node>(),
            self.live_blocks_per_node()
        );
        println!(
            "{:>9} {:>12} {:>11}",
            "block B", "blocks/node", "bytes/node"
        );
        let mut listed = 0;
        for (size, blocks) in self.live.by_size() {
            if blocks as f64 >= nodes / 100.0 {
                let bytes = size as u64 * blocks;
                listed += bytes;
                let per_node = blocks as f64 / nodes;
                println!("{size:>9} {per_node:>12.2} {:>11.1}", bytes as f64 / nodes);
            }
        }
        let rest = (self.live.bytes() - listed) as f64;
        println!("{:>9} {:>12} {:>11.1}", "the rest", "", rest / nodes);
    }
}

const USAGE: &str = "\
usage: mem_footprint [--dims X Y Z] [--out PATH] [--series] [--check PATH]
                     [--histogram]

--dims X Y Z      measure a single slice instead of the default
                  512 / 2,048 / 10,368-node sweep
--out PATH        JSON output path (default BENCH_mem.json); the rows
                  of the file it replaces are kept as before_*
--check PATH      hold every size's peak bytes and every number of the
                  observed row to gate::HEAP_LIMIT x the baseline's
--series          enable per-link congestion series and hold the peaks to
                  --check's (default BENCH_mem.json) plain ones plus
                  gate::SERIES_BYTES_PER_NODE a node; no JSON output
--histogram       after each size, print what is live per node by
                  allocation size";

fn measure(dims: Dims, series: bool) -> Row {
    let nodes = dims.node_count() as usize;

    let floor = heap::restart_peak();
    let census_floor = Census::take();

    let mut machine = machines::red_storm(dims, 1);
    if series {
        machine.enable_link_series(SeriesConfig::default());
    }
    let built = heap::live_bytes().saturating_sub(floor);

    let mut engine = machine.into_engine();
    let outcome = engine.run();
    assert_eq!(outcome, RunOutcome::Drained, "scale run must drain");
    assert_eq!(
        engine.model().running_apps(),
        0,
        "every app must finish its round"
    );
    let peak = heap::peak_bytes().saturating_sub(floor);
    let events = engine.dispatched();
    let live = Census::take().since(&census_floor);
    drop(engine);

    Row {
        dims,
        nodes,
        built_bytes: built,
        peak_bytes: peak,
        events,
        live,
    }
}

/// One run of the contended 8x8x8 all-to-all (the all-to-all stage of
/// the benchmark's `torus512_observed`) with the named sinks on.
struct ObservedRun {
    /// Peak over build, run and — with the series on — the attribution
    /// table and the series JSON a user makes of them.
    peak_bytes: u64,
    /// Live at the end of the run, the machine still whole.
    end_bytes: u64,
    spans: u64,
    records: u64,
    nonzero_buckets: u64,
}

fn observe(registry: bool, causal: bool, series: bool) -> ObservedRun {
    let floor = heap::restart_peak();

    let mut m = machines::torus512_alltoall();
    machines::observe(&mut m, registry, causal, series.then(SeriesConfig::default));
    let mut engine = m.into_engine();
    assert_eq!(engine.run(), RunOutcome::Drained, "all-to-all must drain");
    let end_bytes = heap::live_bytes().saturating_sub(floor);

    let m = engine.model();
    let mut nonzero_buckets = 0;
    if let Some(series) = m.link_series() {
        let table = attribute_occupancy(series, 8, 4);
        let json = series.to_json();
        black_box((table.rows.len(), json.len()));
        let zero = LinkBucket::default();
        let nonzero = |l: &LinkSeries| l.buckets().filter(|b| *b != zero).count();
        nonzero_buckets = machines::links(series).map(nonzero).sum();
    }
    ObservedRun {
        peak_bytes: heap::peak_bytes().saturating_sub(floor),
        end_bytes,
        spans: m.telemetry().spans().len() as u64,
        records: m.causal().records().len() as u64,
        nonzero_buckets: nonzero_buckets as u64,
    }
}

/// One number of the observed row: its name in the JSON and its value.
type Observed = (&'static str, f64);

/// Measure the observed row: one run with every sink on for the peak,
/// one with each sink alone against one with none for what that sink
/// holds at the end.
fn observed_row() -> Vec<Observed> {
    let none = observe(false, false, false);
    let all = observe(true, true, true);
    let held = |run: &ObservedRun, stored: u64| {
        run.end_bytes.saturating_sub(none.end_bytes) as f64 / stored.max(1) as f64
    };
    let registry = observe(true, false, false);
    let causal = observe(false, true, false);
    let series = observe(false, false, true);
    vec![
        ("peak_bytes", all.peak_bytes as f64),
        ("unobserved_peak_bytes", none.peak_bytes as f64),
        ("spans", all.spans as f64),
        ("bytes_per_span", held(&registry, registry.spans)),
        ("records", all.records as f64),
        ("bytes_per_record", held(&causal, causal.records)),
        ("nonzero_buckets", all.nonzero_buckets as f64),
        (
            "bytes_per_nonzero_bucket",
            held(&series, series.nonzero_buckets),
        ),
    ]
}

fn main() -> std::process::ExitCode {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    cli::exit_status("mem_footprint", USAGE, &tokens, run)
}

fn run(mut args: Args) -> CmdResult {
    // The observed row belongs to the default sweep, not to one slice.
    let slice = args.dims("--dims")?;
    let out = args.value("--out")?;
    let out = out.unwrap_or_else(|| "BENCH_mem.json".into());
    let series = args.flag("--series");
    let histogram = args.flag("--histogram");
    let check = args.value("--check")?;
    args.finish()?;
    let sizes = match slice {
        Some(dims) => vec![dims],
        None => vec![
            Dims::red_storm(8, 8, 8),
            Dims::red_storm(16, 16, 8),
            full_machine(),
        ],
    };

    if series {
        println!("mem footprint (+series): heap bytes per node, 1 neighbor-push round of 16 KiB\n");
    } else {
        println!("mem footprint: heap bytes per node, 1 neighbor-push round of 16 KiB\n");
    }
    println!(
        "{:<10} {:>8} {:>14} {:>14} {:>12} {:>12} {:>10}",
        "dims", "nodes", "built bytes", "peak bytes", "built/node", "peak/node", "events"
    );

    let rows: Vec<Row> = sizes.into_iter().map(|d| measure(d, series)).collect();
    for r in &rows {
        println!(
            "{:<10} {:>8} {:>14} {:>14} {:>12} {:>12} {:>10}",
            format!("{}x{}x{}", r.dims.nx, r.dims.ny, r.dims.nz),
            r.nodes,
            r.built_bytes,
            r.peak_bytes,
            r.built_bytes / r.nodes as u64,
            r.peak_bytes / r.nodes as u64,
            r.events
        );
    }
    if histogram {
        rows.iter().for_each(Row::print_histogram);
    }

    let headline = rows.last().expect("at least one size");
    println!(
        "\nlargest slice peaks at {:.1} MB heap ({} bytes/node) — budget 4 GB",
        headline.peak_bytes as f64 / 1e6,
        headline.peak_bytes / headline.nodes as u64
    );
    let peaks: Vec<(usize, u64)> = rows.iter().map(|r| (r.nodes, r.peak_bytes)).collect();

    if series {
        let baseline = Baseline::load(check.as_deref().unwrap_or("BENCH_mem.json"))?;
        println!();
        gate::check_series(&baseline, &peaks)?;
        println!("\nevery peak within the observability heap envelope");
        return Ok(());
    }

    let observed = match slice {
        Some(_) => Vec::new(),
        None => observed_row(),
    };
    if !observed.is_empty() {
        println!("\nobserved 8x8x8 all-to-all of 4 KiB (registry + causal log + link series):");
        for (name, value) in &observed {
            println!("  {name:<26} {value:>16.2}");
        }
    }

    // Gate before writing: `--out` may name the baseline itself.
    if let Some(path) = &check {
        let counts: Vec<_> = rows.iter().flat_map(Row::counts).collect();
        println!();
        let baseline = Baseline::load(path)?;
        gate::check_mem(&baseline, &peaks, &counts, &observed)?;
        println!("\nevery peak within the heap gate");
    }
    let before = Baseline::load(&out).ok();
    cli::write_file(&out, render_json(&rows, &observed, before.as_ref()))?;
    println!("wrote {out}");
    Ok(())
}

fn render_json(rows: &[Row], observed: &[Observed], before: Option<&Baseline>) -> String {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut w = JsonWriter::new();
    w.object(true)
        .field_str("bench", "mem-bytes-per-node")
        .field("cores", cores)
        .field("rounds", 1)
        .field("msg_bytes", NEIGHBOR_MSG);
    w.key("sizes").array(true);
    for r in rows {
        w.object(false).key("dims").array(false);
        w.value(r.dims.nx).value(r.dims.ny).value(r.dims.nz).end();
        w.field("nodes", r.nodes)
            .field("built_bytes", r.built_bytes)
            .field("peak_bytes", r.peak_bytes)
            .field("built_bytes_per_node", r.built_bytes / r.nodes as u64)
            .field("peak_bytes_per_node", r.peak_bytes / r.nodes as u64)
            .field("events", r.events);
        for (_, field, count) in r.counts() {
            w.field(field, count);
        }
        for field in [
            "built_bytes",
            "peak_bytes",
            "node_bytes",
            "live_blocks_per_node",
        ] {
            let was = |b: &Baseline| b.row_number("sizes", "nodes", &r.nodes.to_string(), field);
            if let Some(bytes) = before.and_then(|b| was(b).ok()) {
                w.field(&format!("before_{field}"), bytes);
            }
        }
        w.end();
    }
    w.end();
    if !observed.is_empty() {
        w.key("observed").object(false).key("dims").array(false);
        w.value(8).value(8).value(8).end();
        w.field_str("pattern", "alltoall").field("msg_bytes", 4096);
        for (name, value) in observed {
            w.field(name, format_args!("{value:?}"));
            if let Some(was) = before.and_then(|b| b.number(&format!("observed.{name}")).ok()) {
                w.field(&format!("before_{name}"), format_args!("{was:?}"));
            }
        }
        w.end();
    }
    w.end();
    w.finish()
}
