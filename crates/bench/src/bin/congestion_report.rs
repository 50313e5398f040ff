//! Fabric congestion observatory: per-pattern hotspot attribution over
//! the traffic suite.
//!
//! For every [`TrafficPattern`] this bench runs the pattern machine with
//! the full observation stack on — telemetry, causal tracing, per-link
//! series — and produces the congestion attribution table: *"flow F
//! lost T ns on link L during bucket B because of competing flows
//! {G, H}"*. The numbers are accounting identities, not estimates, and
//! the bench enforces that on every run:
//!
//! * the table's total equals the critical-path hop-queueing class to
//!   the picosecond (zero residual);
//! * the series-derived table ([`attribute_occupancy`]) reproduces the
//!   causal-derived one ([`attribute`]) byte for byte — on a run the
//!   causal log holds whole; one that overflows its cap is reported from
//!   the series alone, and says so;
//! * a repeat serial run and a 2-worker parallel run reproduce the
//!   digest, the series JSON and the attribution table byte for byte;
//! * every expected put arrived, uncorrupted, with the exact provenance
//!   header sum.
//!
//! ```text
//! congestion_report [--dims XxYxZ] [--rounds N] [--msg BYTES] [--top K]
//!                   [--out PATH] [--trace PATH] [--check PATH]
//! ```
//!
//! `--out` writes the full machine-readable report (all rows). The
//! summary baseline `BENCH_congestion.json` is written next to the
//! repo root by `--out`; `--check PATH` re-runs the sweep and exits
//! non-zero if any pattern's digest, total lost time, or hotspot
//! ranking differs from the committed baseline — the CI gate that keeps
//! congestion behavior pinned.

use std::fmt::Write as _;

use xt3_node::par::run_parallel;
use xt3_node::workloads::{
    expected_hdr_sum, pattern_stats, traffic_machine, PatternStats, TrafficPattern,
};
use xt3_node::Machine;
use xt3_sim::{RunOutcome, SimTime};
use xt3_telemetry::{
    attribute, attribute_occupancy, extract_chains, parse_json, CongestionTable, CritPathError,
    JsonValue, SeriesConfig, SeriesSet,
};
use xt3_topology::coord::Dims;

/// Series geometry for report runs: default buckets, but an occupancy
/// log deep enough that no crossing is ever dropped (the occupancy
/// table must cover every stall exactly).
fn report_series_config() -> SeriesConfig {
    SeriesConfig {
        occupancy_cap: 65_536,
        ..SeriesConfig::default()
    }
}

/// Everything one serial observed run yields.
struct ObservedRun {
    digest: u64,
    fingerprint: u64,
    elapsed: SimTime,
    dispatched: u64,
    /// Canonicalized series-derived attribution table.
    table: CongestionTable,
    /// The canonicalized causal-derived table — must equal `table` — and
    /// its residual against the chains — must be zero; or why the causal
    /// log cannot be attributed.
    causal: Result<(CongestionTable, i128), CritPathError>,
    series_json: String,
    /// Occupancy entries dropped across all links (must be 0).
    occ_dropped: u64,
    perfetto: String,
    stats: PatternStats,
}

fn build(pattern: TrafficPattern, dims: Dims, rounds: u32, msg: u64) -> Machine {
    let mut m = traffic_machine(pattern, dims, rounds, msg);
    m.config.telemetry = true;
    m.set_causal_enabled(true);
    m.enable_link_series(report_series_config());
    m
}

fn total_occ_dropped(series: &SeriesSet) -> u64 {
    let mut dropped = 0;
    for node in 0..series.node_slots() as u32 {
        let Some(lanes) = series.node(node) else {
            continue;
        };
        for port in 0..6u8 {
            dropped += lanes.link(port).occ_dropped();
        }
    }
    dropped
}

fn run_serial(
    pattern: TrafficPattern,
    dims: Dims,
    rounds: u32,
    msg: u64,
    top_k: usize,
) -> ObservedRun {
    let mut engine = build(pattern, dims, rounds, msg).into_engine();
    let outcome = engine.run();
    assert_eq!(
        outcome,
        RunOutcome::Drained,
        "{}: must drain",
        pattern.name()
    );
    let digest = engine.digest();
    let fingerprint = engine.state_fingerprint();
    let elapsed = engine.now();
    let dispatched = engine.dispatched();
    let mut m = engine.into_model();

    let series = m.link_series().expect("series enabled");
    let causal = extract_chains(m.causal()).and_then(|chains| {
        let mut table = attribute(&chains, m.causal(), Some(series), top_k, 4)?;
        let residual = table.residual(&chains);
        table.canonicalize();
        Ok((table, residual))
    });
    let mut table = attribute_occupancy(series, top_k, 4);
    table.canonicalize();
    let series_json = series.to_json();
    let occ_dropped = total_occ_dropped(series);
    let perfetto = m
        .telemetry()
        .perfetto_json_full(Some(m.causal()), m.link_series());
    let stats = pattern_stats(&mut m);
    ObservedRun {
        digest,
        fingerprint,
        elapsed,
        dispatched,
        table,
        causal,
        series_json,
        occ_dropped,
        perfetto,
        stats,
    }
}

/// One pattern's verified results.
struct PatternReport {
    pattern: TrafficPattern,
    run: ObservedRun,
    msgs: u64,
}

/// Run the pattern serially (twice) and in parallel, enforce every
/// identity, and return the verified report.
fn run_pattern(
    pattern: TrafficPattern,
    dims: Dims,
    rounds: u32,
    msg: u64,
    top_k: usize,
) -> PatternReport {
    let name = pattern.name();
    let run = run_serial(pattern, dims, rounds, msg, top_k);

    // Accounting fences on the primary run.
    assert_eq!(run.occ_dropped, 0, "{name}: occupancy log overflowed");
    match &run.causal {
        Ok((causal, residual)) => {
            assert_eq!(*residual, 0, "{name}: attribution residual must be zero");
            assert_same_table(
                causal,
                &run.table,
                &format!("{name}: series-derived table must reproduce the causal-derived one"),
            );
        }
        Err(e @ CritPathError::Truncated { .. }) => println!(
            "{e}\n{name}: the table below is the series-derived one; \
             zero residual and occupancy == causal were not checked"
        ),
        Err(e) => panic!("{name}: causal DAG is malformed: {e}"),
    }
    assert_eq!(run.stats.outstanding, 0, "{name}: missing arrivals");
    assert!(!run.stats.corrupt, "{name}: payload corruption");
    let seed = xt3_node::config::MachineConfig::paper(dims).seed;
    assert_eq!(
        run.stats.hdr_sum,
        expected_hdr_sum(pattern, dims, rounds, seed),
        "{name}: provenance sum mismatch"
    );

    // Repeat serial run: everything byte-identical.
    let rerun = run_serial(pattern, dims, rounds, msg, top_k);
    assert_eq!(run.digest, rerun.digest, "{name}: repeat digest");
    assert_eq!(
        run.fingerprint, rerun.fingerprint,
        "{name}: repeat fingerprint"
    );
    assert_eq!(
        run.series_json, rerun.series_json,
        "{name}: repeat series JSON"
    );
    assert_same_table(
        &run.table,
        &rerun.table,
        &format!("{name}: repeat attribution table"),
    );

    // Parallel run: the coordinator owns the real fabric, so the series
    // — and the series-derived attribution table — must come back byte
    // for byte. Digest and fingerprint pin everything else.
    let par = run_parallel(build(pattern, dims, rounds, msg), 2);
    assert_eq!(par.digest, run.digest, "{name}: parallel digest");
    assert_eq!(
        par.state_fingerprint, run.fingerprint,
        "{name}: parallel fingerprint"
    );
    let par_series = par.machine.link_series().expect("series survive merge");
    assert_eq!(
        par_series.to_json(),
        run.series_json,
        "{name}: parallel series JSON"
    );
    let mut par_occ = attribute_occupancy(par_series, top_k, 4);
    par_occ.canonicalize();
    assert_same_table(
        &run.table,
        &par_occ,
        &format!("{name}: parallel attribution table"),
    );

    let msgs = run.stats.received;
    PatternReport { pattern, run, msgs }
}

/// Two attribution tables that must be the same table. On a contended
/// machine one renders to hundreds of megabytes, so a mismatch reports
/// the row counts and the first differing row, never both tables.
fn assert_same_table(a: &CongestionTable, b: &CongestionTable, what: &str) {
    if a == b {
        return;
    }
    let first = a.rows.iter().zip(&b.rows).position(|(x, y)| x != y);
    match first {
        Some(at) => panic!(
            "{what}: {} vs {} rows, first difference at row {at}:\n  {:?}\n  {:?}",
            a.rows.len(),
            b.rows.len(),
            a.rows[at],
            b.rows[at]
        ),
        None => panic!(
            "{what}: {} vs {} rows, equal up to the shorter; total lost {} vs {} ps, \
             bucket {} vs {} ps, hotspots {}",
            a.rows.len(),
            b.rows.len(),
            a.total_lost.ps(),
            b.total_lost.ps(),
            a.bucket.ps(),
            b.bucket.ps(),
            if a.hotspots == b.hotspots {
                "equal"
            } else {
                "differ"
            }
        ),
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: congestion_report [--dims XxYxZ] [--rounds N] [--msg BYTES] [--top K]\n\
         \x20                        [--out PATH] [--trace PATH] [--check PATH]\n\
         \n\
         --dims XxYxZ   torus dimensions (default 4x4x2)\n\
         --rounds N     repetitions of each pattern's target list (default 2)\n\
         --msg BYTES    put payload size (default 4096)\n\
         --top K        hotspot links to rank (default 8)\n\
         --out PATH     write the full machine-readable report JSON\n\
         --trace PATH   write a Perfetto trace (spans + flows + counter tracks)\n\
         \x20              of the incast run\n\
         --check PATH   compare against a committed baseline; exit 1 on drift"
    );
    std::process::exit(2)
}

fn main() {
    let mut dims = Dims::mesh(4, 4, 2);
    let mut rounds: u32 = 2;
    let mut msg: u64 = 4096;
    let mut top_k: usize = 8;
    let mut out: Option<String> = None;
    let mut trace: Option<String> = None;
    let mut check: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--dims" => {
                let v = args.next().unwrap_or_else(|| usage());
                let parts: Vec<u16> = v.split('x').filter_map(|p| p.parse().ok()).collect();
                if parts.len() != 3 || parts.contains(&0) {
                    usage()
                }
                dims = Dims::mesh(parts[0], parts[1], parts[2]);
            }
            "--rounds" => {
                rounds = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage())
            }
            "--msg" => {
                msg = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage())
            }
            "--top" => {
                top_k = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage())
            }
            "--out" => out = Some(args.next().unwrap_or_else(|| usage())),
            "--trace" => trace = Some(args.next().unwrap_or_else(|| usage())),
            "--check" => check = Some(args.next().unwrap_or_else(|| usage())),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage()
            }
        }
    }

    println!(
        "congestion_report: {}x{}x{} torus, {} round(s), {} B puts, top-{} hotspots",
        dims.nx, dims.ny, dims.nz, rounds, msg, top_k
    );

    let mut reports = Vec::new();
    for pattern in TrafficPattern::ALL {
        println!();
        println!("=== {} ===", pattern.name());
        let report = run_pattern(pattern, dims, rounds, msg, top_k);
        print_pattern(&report);
        if pattern == TrafficPattern::Incast {
            if let Some(path) = &trace {
                if let Err(e) = std::fs::write(path, &report.run.perfetto) {
                    eprintln!("failed to write {path}: {e}");
                    std::process::exit(1);
                }
                println!("Perfetto trace (incast) written to {path}");
            }
        }
        reports.push(report);
    }

    println!();
    let truncated = reports.iter().filter(|r| r.run.causal.is_err()).count();
    if truncated == 0 {
        println!("all identities held: zero residual, occupancy == causal attribution,");
    } else {
        println!("{truncated} pattern(s) overflowed the causal log and were attributed from the");
        println!("series alone; for the rest: zero residual, occupancy == causal attribution;");
    }
    println!("repeat and 2-worker parallel runs byte-identical per pattern");

    let baseline = render_baseline(&reports, dims, rounds, msg, top_k);
    if let Some(path) = &out {
        let full = render_full(&reports, dims, rounds, msg, top_k);
        if let Err(e) = std::fs::write(path, full) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("full report written to {path}");
    }
    match check {
        Some(path) => check_baseline(&path, &baseline),
        None => {
            let path = "BENCH_congestion.json";
            if let Err(e) = std::fs::write(path, &baseline) {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
            println!("baseline written to {path}");
        }
    }
}

/// Rows actually shown per pattern; the full set goes to `--out`.
const SHOW_ROWS: usize = 12;

fn print_pattern(report: &PatternReport) {
    let run = &report.run;
    println!(
        "messages {}   elapsed {:.1} us   events {}   digest {:#018x}",
        report.msgs,
        run.elapsed.as_ns_f64() / 1e3,
        run.dispatched,
        run.digest
    );
    println!(
        "hop-queueing lost {:.1} us across {} stalled crossings ({})",
        run.table.total_lost.as_ns_f64() / 1e3,
        run.table.rows.len(),
        if run.causal.is_ok() {
            "residual 0"
        } else {
            "series only"
        }
    );
    if run.table.rows.is_empty() {
        println!("no congestion: every crossing went straight through");
        return;
    }
    println!();
    println!("top hotspot links:");
    print!("{}", run.table.render_hotspots_text());
    println!();
    // Show the worst individual waits.
    let mut worst: Vec<usize> = (0..run.table.rows.len()).collect();
    worst.sort_by_key(|&i| {
        let r = &run.table.rows[i];
        (std::cmp::Reverse(r.lost), r.node, r.port, r.flow.0)
    });
    worst.truncate(SHOW_ROWS);
    worst.sort_unstable();
    let shown = CongestionTable {
        bucket: run.table.bucket,
        rows: worst.iter().map(|&i| run.table.rows[i].clone()).collect(),
        total_lost: run.table.total_lost,
        hotspots: Vec::new(),
    };
    println!(
        "worst {} of {} attribution rows (full set in --out JSON):",
        shown.rows.len(),
        run.table.rows.len()
    );
    print!("{}", shown.render_text());
}

/// The committed baseline: per-pattern digest, loss totals and hotspot
/// ranking. Everything in it is simulation-deterministic, so `--check`
/// demands exact equality.
fn render_baseline(
    reports: &[PatternReport],
    dims: Dims,
    rounds: u32,
    msg: u64,
    top_k: usize,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"congestion\",");
    let _ = writeln!(
        s,
        "  \"dims\": \"{}x{}x{}\", \"rounds\": {rounds}, \"msg\": {msg}, \"top\": {top_k},",
        dims.nx, dims.ny, dims.nz
    );
    s.push_str("  \"patterns\": [\n");
    for (i, r) in reports.iter().enumerate() {
        let comma = if i + 1 == reports.len() { "" } else { "," };
        let _ = write!(
            s,
            "    {{\"pattern\": \"{}\", \"digest\": \"{:#018x}\", \"messages\": {}, \
             \"events\": {}, \"elapsed_ps\": {}, \"total_lost_ps\": {}, \"stalled\": {}, \
             \"hotspots\": [",
            r.pattern.name(),
            r.run.digest,
            r.msgs,
            r.run.dispatched,
            r.run.elapsed.ps(),
            r.run.table.total_lost.ps(),
            r.run.table.rows.len()
        );
        for (j, h) in r.run.table.hotspots.iter().enumerate() {
            let comma = if j + 1 == r.run.table.hotspots.len() {
                ""
            } else {
                ", "
            };
            let _ = write!(
                s,
                "{{\"node\": {}, \"port\": {}, \"stall_ps\": {}, \"msgs\": {}}}{comma}",
                h.node,
                h.port,
                h.stall.ps(),
                h.msgs
            );
        }
        let _ = writeln!(s, "]}}{comma}");
    }
    s.push_str("  ]\n}\n");
    s
}

/// The full report: baseline summary plus every attribution row and the
/// complete series for each pattern.
fn render_full(
    reports: &[PatternReport],
    dims: Dims,
    rounds: u32,
    msg: u64,
    top_k: usize,
) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"congestion-full\",");
    let _ = writeln!(
        s,
        "  \"dims\": \"{}x{}x{}\", \"rounds\": {rounds}, \"msg\": {msg}, \"top\": {top_k},",
        dims.nx, dims.ny, dims.nz
    );
    s.push_str("  \"patterns\": [\n");
    for (i, r) in reports.iter().enumerate() {
        let comma = if i + 1 == reports.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"pattern\": \"{}\", \"digest\": \"{:#018x}\",",
            r.pattern.name(),
            r.run.digest
        );
        let _ = writeln!(s, "     \"attribution\": {},", r.run.table.render_json());
        let _ = writeln!(s, "     \"series\": {}}}{comma}", r.run.series_json);
    }
    s.push_str("  ]\n}\n");
    s
}

/// Exact-match gate against a committed baseline.
fn check_baseline(path: &str, current: &str) {
    let committed = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("failed to read {path}: {e}");
        std::process::exit(1);
    });
    if committed == *current {
        println!("baseline check: {path} matches");
        return;
    }
    // Narrow the diff for the log before failing.
    let doc_a = parse_json(&committed).ok();
    let doc_b = parse_json(current).ok();
    if let (Some(a), Some(b)) = (doc_a, doc_b) {
        let pats = |d: &JsonValue| {
            d.get("patterns")
                .and_then(|p| p.as_array().map(<[_]>::to_vec))
                .unwrap_or_default()
        };
        for (pa, pb) in pats(&a).iter().zip(pats(&b).iter()) {
            let name = pa
                .get("pattern")
                .and_then(JsonValue::as_str)
                .unwrap_or("?")
                .to_string();
            for field in ["digest", "messages", "events", "total_lost_ps", "stalled"] {
                let va = pa.get(field).map(|v| format!("{v:?}"));
                let vb = pb.get(field).map(|v| format!("{v:?}"));
                if va != vb {
                    eprintln!("{name}: {field} drifted: committed {va:?}, current {vb:?}");
                }
            }
        }
    }
    eprintln!("congestion baseline drift: {path} does not match the current sweep");
    std::process::exit(1);
}
