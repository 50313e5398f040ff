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
//! spaces) is accountable to keeping it far under the 4 GB line. Each
//! row also carries its **paper ledger**, read at the round's fullest
//! 1,000-event boundary: the sources and pendings in use at §4.2's sizes
//! (32 B a source, 64 B lower + 64 B upper a pending) per node, beside
//! the live MDs and the EQ slots holding an event, which §4.2 does not
//! size.
//!
//! The default sweep ends with the **observed row**: the contended
//! 8x8x8 all-to-all with the registry, the causal log and the link
//! series on — peak bytes of the run plus attribution table and series
//! JSON, and what each sink holds at the end per thing it stored (bytes
//! per span, per causal record made, per non-zero series bucket; each
//! read off a run with only that sink on, against a run with none) — the
//! series' heap ratio: the peak with the series alone over the peak with
//! no sink — and the RX-pending ledger: at the unobserved all-to-all's
//! fullest 100k-event boundary, the host bytes an RX pending in use costs
//! (its delivery box, RX row slot and lower pending) beside the paper's
//! 128 B (§4.2's 64 B lower and 64 B upper pending).
//!
//! The JSON it writes carries the rows of the file it replaces as
//! `before_*`, so the committed `BENCH_mem.json` holds a before/after
//! pair for whatever change regenerated it. `--check PATH` is the
//! regression gate: the counts are allocator-exact and the run is
//! deterministic, so any size whose peak bytes per node — or any number
//! of the observed row — exceeds the committed value by more than 2 %
//! fails, and so does a series heap ratio past
//! [`gate::SERIES_HEAP_RATIO_CEILING`].
//!
//! `--series` measures the same sweep with the per-link congestion
//! series enabled and enforces the observability heap envelope instead:
//! at every size the instrumented peak must stay within the observation
//! pipe's batches ([`gate::SERIES_PIPE_BYTES`]) plus
//! [`gate::SERIES_BYTES_PER_NODE`] a node of the committed
//! `BENCH_mem.json` plain peak — demand-allocated series lanes may cost
//! heap proportional to *traffic*, never a dense per-node tax.
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
use xt3_firmware::pending::{LowerPending, LOWER_PENDING_BYTES};
use xt3_firmware::source::SOURCE_BYTES;
use xt3_node::machine::{Ev, Machine, Parcel};
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
    /// §4.2's structures in use at the round's fullest boundary.
    ledger: Ledger,
}

impl Row {
    /// The numbers of this row the gate holds exactly: `Node`'s inline
    /// size and the live heap blocks per node after the run (whole
    /// blocks: the few the machine holds once — queue, fabric, the node
    /// vector — do not make one more per node), and the paper ledger.
    fn counts(&self) -> [gate::MemCount; 5] {
        let node_bytes = std::mem::size_of::<Node>() as u64;
        let (l, nodes) = (&self.ledger, self.nodes);
        let blocks = self.live.blocks() / nodes as u64;
        let paper = l.paper_bytes() / nodes as u64;
        [
            (nodes, "node_bytes", node_bytes),
            (nodes, "live_blocks_per_node", blocks),
            (nodes, "paper_bytes_per_node", paper),
            (nodes, "live_mds", l.mds),
            (nodes, "live_eq_slots", l.eq_slots),
        ]
    }
}

/// Events between two looks at a round's machine: the paper ledger is
/// read at the boundary with the most live bytes.
const ROUND_SLICE: u64 = 1_000;

/// §4.2's per-node structures in use across the machine — sources, and
/// RX and TX pendings — and the host structures it does not size: MDs
/// and the EQ slots that hold an event.
#[derive(Clone, Copy, Default)]
struct Ledger {
    sources: u64,
    rx_pendings: u64,
    tx_pendings: u64,
    mds: u64,
    eq_slots: u64,
}

impl Ledger {
    fn take(m: &Machine) -> Self {
        let mut l = Ledger::default();
        for n in &m.nodes {
            l.sources += u64::from(n.fw.sources().in_use());
            l.tx_pendings += n.transmits_in_flight() as u64;
            for p in 0..n.fw.process_count() {
                l.rx_pendings += u64::from(n.fw.rx_pool_stats(p).0);
            }
            for proc in &n.procs {
                let (mds, events) = proc.lib.live_mds_and_events();
                l.mds += u64::from(mds);
                l.eq_slots += u64::from(events);
            }
        }
        l
    }

    /// What §4.2's sizes make of the sources and pendings in use: a 32 B
    /// source each, a 64 B lower and a 64 B upper pending each.
    fn paper_bytes(&self) -> u64 {
        let pendings = self.rx_pendings + self.tx_pendings;
        self.sources * u64::from(SOURCE_BYTES) + pendings * PAPER_PENDING_BYTES
    }
}

/// The histograms DESIGN.md §8 quotes: one line per request size — from
/// 4 KiB up, per power-of-two class (`64Ki+` holds 64 to 128 KiB) — that
/// at least one node in a hundred holds a block of; then each class of
/// 1 MiB or more that the machine holds only a few blocks of (an event
/// queue's buffer, the node array), counted whole; and one line for
/// everything else.
fn print_census(title: &str, live: &Census, nodes: usize) {
    let per_node = |n: u64| n as f64 / nodes as f64;
    println!(
        "\n{title}, {nodes} nodes ({} B Node inline, {} blocks/node):",
        std::mem::size_of::<Node>(),
        live.blocks() / nodes as u64
    );
    println!(
        "{:>9} {:>12} {:>11}",
        "block B", "blocks/node", "bytes/node"
    );
    let mut rest = 0;
    let mut machine_wide = Vec::new();
    for (size, blocks, bytes) in live.by_size() {
        let name = match size < heap::CENSUS_SIZES as u64 {
            true => size.to_string(),
            false => format!("{}Ki+", size >> 10),
        };
        if blocks * 100 >= nodes as u64 {
            let (blocks, bytes) = (per_node(blocks), per_node(bytes));
            println!("{name:>9} {blocks:>12.2} {bytes:>11.1}");
        } else if size >= 1 << 20 && blocks > 0 {
            machine_wide.push((name, blocks, bytes));
        } else {
            rest += bytes;
        }
    }
    for (name, blocks, bytes) in machine_wide {
        println!("{name:>9} {blocks:>12} {bytes:>11} (blocks, bytes: machine-wide)");
    }
    println!("{:>9} {:>12} {:>11.1}", "the rest", "", per_node(rest));
}

/// Events between two looks at the heap while the all-to-all of
/// [`alltoall_at_peak`] runs.
const CENSUS_SLICE: u64 = 100_000;

/// The bytes §4.2 needs for one pending, RX or TX: a 64 B lower pending
/// in SeaStar SRAM and a 64 B upper pending in host memory, which holds
/// "the Portals header + other info".
const PAPER_PENDING_BYTES: u64 = LOWER_PENDING_BYTES as u64 + 64;

/// The unobserved 8x8x8 all-to-all at the slice boundary with the most
/// live bytes.
struct Fullest {
    /// Live bytes at every boundary.
    curve: Vec<u64>,
    live: Census,
    /// Events dispatched by the boundary, and over the whole run.
    at: u64,
    events: u64,
    queue_len: usize,
    queue_capacity: usize,
    nodes: usize,
    /// RX pendings in use: a receive holds its pending from its header
    /// to its release.
    rx_pendings: u64,
    /// Receives that hold their delivery box in an RX row slot.
    rx_slots: u64,
    /// Delivery boxes: those in RX rows, and those a queued header
    /// carries.
    boxes: u64,
}

impl Fullest {
    /// Host bytes an RX pending in use costs: the delivery boxes, the row
    /// slots that point at them and the lower pendings, over the pendings.
    fn bytes_per_rx_pending(&self) -> f64 {
        let parcel = std::mem::size_of::<Parcel>() as u64;
        let lower = std::mem::size_of::<LowerPending>() as u64;
        let host = self.boxes * parcel + self.rx_slots * 8 + self.rx_pendings * lower;
        host as f64 / self.rx_pendings.max(1) as f64
    }
}

/// Run the unobserved 8x8x8 all-to-all in slices of [`CENSUS_SLICE`]
/// events and take the census of the boundary with the most live bytes,
/// with what its RX pendings hold there. Receive records leave with
/// their receives, so the drained machine no longer holds what it held
/// at its peak.
fn alltoall_at_peak() -> Fullest {
    let mut curve = Vec::with_capacity(64);
    let floor = Census::take();
    let base = heap::live_bytes();
    let mut engine = machines::torus512_alltoall()
        .into_engine()
        .with_event_budget(CENSUS_SLICE);
    let (mut most, mut peak) = (0, None);
    loop {
        let outcome = engine.run();
        let live = heap::live_bytes().saturating_sub(base);
        if live > most {
            most = live;
            let live = Census::take().since(&floor);
            let (q, m) = (engine.queue(), engine.model());
            let rx_slots: usize = m.nodes.iter().map(Node::receives_in_flight).sum();
            let queued = q.iter().filter(|e| matches!(e, Ev::NetHeader { .. }));
            peak = Some(Fullest {
                curve: Vec::new(),
                live,
                at: engine.dispatched(),
                events: 0,
                queue_len: q.len(),
                queue_capacity: q.capacity(),
                nodes: m.nodes.len(),
                rx_pendings: Ledger::take(m).rx_pendings,
                rx_slots: rx_slots as u64,
                boxes: (rx_slots + queued.count()) as u64,
            });
        }
        curve.push(live);
        match outcome {
            RunOutcome::EventBudgetExhausted => {}
            RunOutcome::Drained => break,
            other => panic!("all-to-all stopped early: {other:?}"),
        }
    }
    let peak = peak.expect("the all-to-all dispatches events");
    Fullest {
        curve,
        events: engine.dispatched(),
        ..peak
    }
}

/// Print [`alltoall_at_peak`]'s live MB at every boundary, and the
/// census of the fullest with its queue, RX pendings, delivery boxes and
/// the host bytes an RX pending costs against the paper's.
fn print_alltoall_at_peak(f: &Fullest) {
    let mb: Vec<String> = f
        .curve
        .iter()
        .map(|b| format!("{:.1}", *b as f64 / 1e6))
        .collect();
    println!(
        "\nunobserved 8x8x8 all-to-all, live MB every {CENSUS_SLICE} events: {}",
        mb.join(" ")
    );
    let per = f.bytes_per_rx_pending();
    let title = format!(
        "live at its fullest boundary (event {} of {}; queue {} events in {} slots; \
         {} RX pendings in use; {} delivery boxes of {} B, {} of them in RX rows; \
         {per:.1} host B an RX pending in use, the paper's {PAPER_PENDING_BYTES} B \
         (64 B lower + 64 B upper pending): {:.2}x)",
        f.at,
        f.events,
        f.queue_len,
        f.queue_capacity,
        f.rx_pendings,
        f.boxes,
        std::mem::size_of::<Parcel>(),
        f.rx_slots,
        per / PAPER_PENDING_BYTES as f64
    );
    print_census(&title, &f.live, f.nodes);
}

const USAGE: &str = "\
usage: mem_footprint [--dims X Y Z] [--out PATH] [--series] [--check PATH]
                     [--histogram]

--dims X Y Z      measure a single slice instead of the default
                  512 / 2,048 / 10,368-node sweep
--out PATH        JSON output path (default BENCH_mem.json); the rows
                  of the file it replaces are kept as before_*
--check PATH      hold every size's peak bytes and every number of the
                  observed row to gate::HEAP_LIMIT x the baseline's, and
                  the series heap ratio to gate::SERIES_HEAP_RATIO_CEILING
--series          enable per-link congestion series and hold the peaks to
                  --check's (default BENCH_mem.json) plain ones plus
                  gate::SERIES_PIPE_BYTES plus gate::SERIES_BYTES_PER_NODE
                  a node; no JSON output
--histogram       after each size, and at the unobserved 8x8x8
                  all-to-all's fullest 100k-event boundary, print what is
                  live per node by allocation size, and each machine-wide
                  class of 1 MiB or more; each size's paper ledger with
                  its peak over the paper's bytes, and the boundary's line
                  the host bytes an RX pending in use costs there";

fn measure(dims: Dims, series: bool) -> Row {
    let nodes = dims.node_count() as usize;

    let floor = heap::restart_peak();
    let census_floor = Census::take();

    let mut machine = machines::red_storm(dims, 1);
    if series {
        machine.enable_link_series(SeriesConfig::default());
    }
    let built = heap::live_bytes().saturating_sub(floor);

    let mut engine = machine.into_engine().with_event_budget(ROUND_SLICE);
    let (mut most, mut ledger) = (0, Ledger::default());
    let mut outcome = RunOutcome::EventBudgetExhausted;
    while outcome == RunOutcome::EventBudgetExhausted {
        outcome = engine.run();
        if heap::live_bytes() > most {
            most = heap::live_bytes();
            ledger = Ledger::take(engine.model());
        }
    }
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
        ledger,
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
    /// Causal records made — stored whole or folded — so bytes per
    /// record reads what the log costs per record of the run.
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
        records: m.causal().made(),
        nonzero_buckets: nonzero_buckets as u64,
    }
}

/// One number of the observed row: its name in the JSON and its value.
type Observed = (&'static str, f64);

/// Measure the observed row: one run with every sink on for the peak,
/// one with each sink alone against one with none for what that sink
/// holds at the end, and the series-alone peak over the unobserved one.
fn observed_row(fullest: &Fullest) -> Vec<Observed> {
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
        (
            "series_heap_ratio",
            series.peak_bytes as f64 / none.peak_bytes as f64,
        ),
        ("rx_pending_host_bytes", fullest.bytes_per_rx_pending()),
        ("rx_pending_paper_bytes", PAPER_PENDING_BYTES as f64),
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
    // The all-to-all's fullest boundary: the histogram prints it, and
    // the observed row carries its RX-pending ledger.
    let fullest = (histogram || slice.is_none()).then(alltoall_at_peak);
    if histogram {
        for r in &rows {
            print_census("live after the run", &r.live, r.nodes);
            let (l, nodes) = (&r.ledger, r.nodes as f64);
            let (paper, peak) = (l.paper_bytes() as f64 / nodes, r.peak_bytes as f64 / nodes);
            println!(
                "paper ledger at the fullest {ROUND_SLICE}-event boundary: {} sources, {} RX \
                 and {} TX pendings in use, {paper:.1} B a node at §4.2's sizes ({SOURCE_BYTES} \
                 B a source, {PAPER_PENDING_BYTES} B a pending); peak {peak:.1} B a node, \
                 {:.2}x; not sized by §4.2: {} MDs live, {} events in EQ slots",
                l.sources,
                l.rx_pendings,
                l.tx_pendings,
                peak / paper.max(1.0),
                l.mds,
                l.eq_slots
            );
        }
        print_alltoall_at_peak(fullest.as_ref().expect("taken for the histogram"));
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

    let observed = match (slice, &fullest) {
        (None, Some(fullest)) => observed_row(fullest),
        _ => Vec::new(),
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
            "paper_bytes_per_node",
            "live_mds",
            "live_eq_slots",
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
