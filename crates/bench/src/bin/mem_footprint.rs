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
//! The JSON it writes carries the rows of the file it replaces as
//! `before_built_bytes` / `before_peak_bytes`, so the committed
//! `BENCH_mem.json` holds a before/after pair for whatever change
//! regenerated it. `--check PATH` is the regression gate: the counts are
//! allocator-exact and the run is deterministic, so any size whose peak
//! bytes per node exceed the committed value by more than 2 % fails.
//!
//! `--series` measures the same sweep with the per-link congestion
//! series enabled and enforces the observability heap envelope instead:
//! at every size the instrumented peak must stay within 2× the committed
//! `BENCH_mem.json` baseline — demand-allocated series lanes may cost
//! heap proportional to *traffic*, never a dense per-node tax.
//!
//! ```text
//! cargo run --release -p xt3-bench --bin mem_footprint -- [--dims X Y Z] [--out PATH]
//!                                                         [--series] [--check PATH]
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use xt3_node::workloads::red_storm_machine;
use xt3_sim::RunOutcome;
use xt3_telemetry::{parse_json, JsonValue, SeriesConfig};
use xt3_topology::coord::Dims;

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
         --check PATH      fail if any size's peak bytes per node exceed the\n\
         \x20                 baseline's by more than 2%\n\
         --series          enable per-link congestion series and enforce the\n\
         \x20                 2x observability heap envelope against --check\n\
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

fn main() {
    let mut sizes = vec![
        Dims::red_storm(8, 8, 8),
        Dims::red_storm(16, 16, 8),
        Dims::red_storm(27, 16, 24),
    ];
    let mut out = String::from("BENCH_mem.json");
    let mut series = false;
    let mut check = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--dims" => {
                let mut next = || args.next().and_then(|v| v.parse::<u16>().ok());
                match (next(), next(), next()) {
                    (Some(x), Some(y), Some(z)) => sizes = vec![Dims::red_storm(x, y, z)],
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
        enforce(&rows, path, 2.0, "observability heap envelope");
        return;
    }

    // Gate before writing: `--out` may name the baseline itself.
    if let Some(path) = &check {
        enforce(&rows, path, 1.02, "per-node heap gate");
    }
    let before = std::fs::read_to_string(&out)
        .ok()
        .and_then(|text| parse_json(&text).ok());
    if let Err(e) = std::fs::write(&out, render_json(&rows, before.as_ref())) {
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

/// Hold every measured size's peak to `limit` × the baseline's peak at
/// the same node count: 2× for the series-instrumented sweep (the
/// observability envelope), 1.02× for the plain one (the regression
/// gate). Sizes missing from the baseline are an error — a silently
/// skipped row would read as "covered" when it wasn't.
fn enforce(rows: &[Row], baseline_path: &str, limit: f64, what: &str) {
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
    if violated {
        eprintln!("\n{what} violated");
        std::process::exit(1);
    }
    println!("\nevery peak within the {limit:.2}x {what}");
}

/// Hand-rolled JSON (the workspace's serde is an offline no-op stub).
fn render_json(rows: &[Row], before: Option<&JsonValue>) -> String {
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
    s.push_str("  ]\n}\n");
    s
}
