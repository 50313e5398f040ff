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
//! [`SERIES_ENVELOPE`]× the committed `BENCH_mem.json` baseline —
//! demand-allocated series lanes may cost heap proportional to
//! *traffic*, never a dense per-node tax.
//!
//! ```text
//! cargo run --release -p xt3-bench --bin mem_footprint -- [--dims X Y Z] [--out PATH]
//!                                                         [--series] [--check PATH]
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use xt3_node::workloads::{red_storm_machine, traffic_machine, TrafficPattern};
use xt3_sim::RunOutcome;
use xt3_telemetry::{attribute_occupancy, parse_json, JsonValue, LinkBucket, SeriesConfig};
use xt3_topology::coord::Dims;

/// The `--series` envelope: the series-instrumented peak over the plain
/// one. Measured 1.222 (512 nodes), 1.220 (2,048) and 1.222 (10,368) on
/// the one-round neighbour push; the limit is the worst of them plus 5 %.
const SERIES_ENVELOPE: f64 = 1.28;

/// Live heap bytes right now.
static LIVE: AtomicU64 = AtomicU64::new(0);
/// High-water mark of [`LIVE`] (reset between measurements).
static PEAK: AtomicU64 = AtomicU64::new(0);

/// System allocator wrapper that keeps the live/peak counters. SeqCst
/// throughout: this is measurement plumbing, not a hot path worth
/// weaker-ordering subtleties.
struct CountingAlloc;

fn count_alloc(bytes: u64) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

// The one sanctioned unsafe block in the tree (see crates/bench's lint
// table): GlobalAlloc is an unsafe trait, and every body only forwards
// to the system allocator plus counter updates.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            count_alloc(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as u64, Ordering::SeqCst);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Ordering::SeqCst);
            count_alloc(new_size as u64);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// One slice's measurement.
struct Row {
    dims: Dims,
    nodes: usize,
    built_bytes: u64,
    peak_bytes: u64,
    events: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: mem_footprint [--dims X Y Z] [--out PATH] [--series] [--check PATH]\n\
         \n\
         --dims X Y Z      measure a single slice instead of the default\n\
         \x20                 512 / 2,048 / 10,368-node sweep\n\
         --out PATH        JSON output path (default BENCH_mem.json); the rows\n\
         \x20                 of the file it replaces are kept as before_*\n\
         --check PATH      fail if any size's peak bytes per node, or any number\n\
         \x20                 of the observed row, exceeds the baseline's by\n\
         \x20                 more than 2%\n\
         --series          enable per-link congestion series and enforce the\n\
         \x20                 observability heap envelope against --check\n\
         \x20                 (default BENCH_mem.json) instead; no JSON output"
    );
    std::process::exit(2)
}

fn measure(dims: Dims, series: bool) -> Row {
    let nodes = dims.node_count() as usize;
    let rounds = 1;
    let msg: u64 = 16 * 1024;

    let floor = LIVE.load(Ordering::SeqCst);
    PEAK.store(floor, Ordering::SeqCst);

    let mut machine = red_storm_machine(dims, rounds, msg);
    if series {
        machine.enable_link_series(SeriesConfig::default());
    }
    let built = LIVE.load(Ordering::SeqCst).saturating_sub(floor);

    let mut engine = machine.into_engine();
    let outcome = engine.run();
    assert_eq!(outcome, RunOutcome::Drained, "scale run must drain");
    assert_eq!(
        engine.model().running_apps(),
        0,
        "every app must finish its round"
    );
    let peak = PEAK.load(Ordering::SeqCst).saturating_sub(floor);
    let events = engine.dispatched();
    drop(engine);

    Row {
        dims,
        nodes,
        built_bytes: built,
        peak_bytes: peak,
        events,
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
    let floor = LIVE.load(Ordering::SeqCst);
    PEAK.store(floor, Ordering::SeqCst);

    let mut m = traffic_machine(TrafficPattern::AllToAll, Dims::red_storm(8, 8, 8), 1, 4096);
    if registry {
        m.config.telemetry = true;
        m.set_telemetry_enabled(true);
    }
    m.set_causal_enabled(causal);
    if series {
        m.enable_link_series(SeriesConfig::default());
    }
    let mut engine = m.into_engine();
    assert_eq!(engine.run(), RunOutcome::Drained, "all-to-all must drain");
    let end_bytes = LIVE.load(Ordering::SeqCst).saturating_sub(floor);

    let m = engine.model();
    let mut nonzero_buckets = 0;
    if let Some(series) = m.link_series() {
        let table = attribute_occupancy(series, 8, 4);
        let json = series.to_json();
        black_box((table.rows.len(), json.len()));
        let zero = LinkBucket::default();
        for node in 0..series.node_slots() as u32 {
            for port in 0..6u8 {
                let link = series.link(node, port);
                nonzero_buckets += link.map_or(0, |l| l.buckets().filter(|b| *b != zero).count());
            }
        }
    }
    ObservedRun {
        peak_bytes: PEAK.load(Ordering::SeqCst).saturating_sub(floor),
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

fn main() {
    let mut sizes = vec![
        Dims::red_storm(8, 8, 8),
        Dims::red_storm(16, 16, 8),
        Dims::red_storm(27, 16, 24),
    ];
    let mut out = String::from("BENCH_mem.json");
    let mut series = false;
    let mut check = None;
    // The observed row belongs to the default sweep, not to one slice.
    let mut observed = true;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--dims" => {
                let mut next = || args.next().and_then(|v| v.parse::<u16>().ok());
                match (next(), next(), next()) {
                    (Some(x), Some(y), Some(z)) => {
                        sizes = vec![Dims::red_storm(x, y, z)];
                        observed = false;
                    }
                    _ => usage(),
                }
            }
            "--out" => out = args.next().unwrap_or_else(|| usage()),
            "--series" => series = true,
            "--check" => check = Some(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage()
            }
        }
    }

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

    let headline = rows.last().expect("at least one size");
    println!(
        "\nlargest slice peaks at {:.1} MB heap ({} bytes/node) — budget 4 GB",
        headline.peak_bytes as f64 / 1e6,
        headline.peak_bytes / headline.nodes as u64
    );

    if series {
        let path = check.as_deref().unwrap_or("BENCH_mem.json");
        enforce(
            &rows,
            &[],
            path,
            SERIES_ENVELOPE,
            "observability heap envelope",
        );
        return;
    }

    let observed = if observed { observed_row() } else { Vec::new() };
    if !observed.is_empty() {
        println!("\nobserved 8x8x8 all-to-all of 4 KiB (registry + causal log + link series):");
        for (name, value) in &observed {
            println!("  {name:<26} {value:>16.2}");
        }
    }

    // Gate before writing: `--out` may name the baseline itself.
    if let Some(path) = &check {
        enforce(&rows, &observed, path, 1.02, "heap gate");
    }
    let before = std::fs::read_to_string(&out)
        .ok()
        .and_then(|text| parse_json(&text).ok());
    if let Err(e) = std::fs::write(&out, render_json(&rows, &observed, before.as_ref())) {
        eprintln!("failed to write {out}: {e}");
        std::process::exit(1);
    }
    println!("wrote {out}");
}

/// `field` of the `nodes`-node row of a BENCH_mem.json document.
fn baseline_field(doc: &JsonValue, nodes: usize, field: &str) -> Option<u64> {
    doc.get("sizes")
        .and_then(JsonValue::as_array)
        .ok()?
        .iter()
        .find(|s| s.get("nodes").and_then(JsonValue::as_u64) == Ok(nodes as u64))?
        .get(field)
        .and_then(JsonValue::as_u64)
        .ok()
}

/// `field` of the observed row of a BENCH_mem.json document.
fn observed_field(doc: &JsonValue, field: &str) -> Option<f64> {
    let row = doc.get("observed").ok()?;
    row.get(field).and_then(JsonValue::as_f64).ok()
}

/// Hold every measured size's peak to `limit` × the baseline's peak at
/// the same node count — [`SERIES_ENVELOPE`]× for the series-instrumented
/// sweep, 1.02× for the plain one (the regression gate) — and every
/// number of the observed row to `limit` × the baseline's. Rows missing
/// from the baseline are an error — a silently skipped row would read as
/// "covered" when it wasn't.
fn enforce(rows: &[Row], observed: &[Observed], baseline_path: &str, limit: f64, what: &str) {
    let baseline = std::fs::read_to_string(baseline_path)
        .map_err(|e| e.to_string())
        .and_then(|text| parse_json(&text))
        .unwrap_or_else(|e| {
            eprintln!("cannot read baseline {baseline_path}: {e}");
            std::process::exit(1);
        });
    println!();
    let mut violated = false;
    for r in rows {
        let Some(base) = baseline_field(&baseline, r.nodes, "peak_bytes") else {
            eprintln!(
                "baseline {baseline_path} has no {}-node row — regenerate it first",
                r.nodes
            );
            std::process::exit(1);
        };
        let ratio = r.peak_bytes as f64 / base as f64;
        let ok = ratio <= limit;
        println!(
            "{:<10} peak {:>14} vs baseline {:>14}  ({:>6}/node vs {:>6}; {ratio:.2}x of limit {limit:.2}x) {}",
            format!("{}x{}x{}", r.dims.nx, r.dims.ny, r.dims.nz),
            r.peak_bytes,
            base,
            r.peak_bytes / r.nodes as u64,
            base / r.nodes as u64,
            if ok { "ok" } else { "VIOLATED" }
        );
        violated |= !ok;
    }
    for &(name, value) in observed {
        let Some(base) = observed_field(&baseline, name) else {
            eprintln!("baseline {baseline_path} has no observed {name} — regenerate it first");
            std::process::exit(1);
        };
        let ok = value <= base * limit;
        println!(
            "observed {name:<26} {value:>16.2} vs baseline {base:>16.2} {}",
            if ok { "ok" } else { "VIOLATED" }
        );
        violated |= !ok;
    }
    if violated {
        eprintln!("\n{what} violated");
        std::process::exit(1);
    }
    println!("\nevery peak within the {limit:.2}x {what}");
}

/// Hand-rolled JSON (the workspace's serde is an offline no-op stub).
fn render_json(rows: &[Row], observed: &[Observed], before: Option<&JsonValue>) -> String {
    use std::fmt::Write as _;
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"mem-bytes-per-node\",");
    let _ = writeln!(s, "  \"cores\": {cores},");
    let _ = writeln!(s, "  \"rounds\": 1,");
    let _ = writeln!(s, "  \"msg_bytes\": 16384,");
    s.push_str("  \"sizes\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let mut extra = String::new();
        for field in ["built_bytes", "peak_bytes"] {
            if let Some(bytes) = before.and_then(|doc| baseline_field(doc, r.nodes, field)) {
                let _ = write!(extra, ", \"before_{field}\": {bytes}");
            }
        }
        let _ = writeln!(
            s,
            "    {{\"dims\": [{}, {}, {}], \"nodes\": {}, \"built_bytes\": {}, \"peak_bytes\": {}, \"built_bytes_per_node\": {}, \"peak_bytes_per_node\": {}, \"events\": {}{extra}}}{comma}",
            r.dims.nx,
            r.dims.ny,
            r.dims.nz,
            r.nodes,
            r.built_bytes,
            r.peak_bytes,
            r.built_bytes / r.nodes as u64,
            r.peak_bytes / r.nodes as u64,
            r.events
        );
    }
    s.push_str("  ]");
    if !observed.is_empty() {
        s.push_str(",\n  \"observed\": {\"dims\": [8, 8, 8], \"pattern\": \"alltoall\", \"msg_bytes\": 4096");
        for (name, value) in observed {
            let _ = write!(s, ", \"{name}\": {value:?}");
            if let Some(was) = before.and_then(|doc| observed_field(doc, name)) {
                let _ = write!(s, ", \"before_{name}\": {was:?}");
            }
        }
        s.push('}');
    }
    s.push_str("\n}\n");
    s
}
