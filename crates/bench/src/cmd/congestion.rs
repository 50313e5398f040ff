//! `explain congestion`: the fabric congestion observatory — per-pattern
//! hotspot attribution over the traffic suite.
//!
//! For every [`TrafficPattern`] this runs the pattern machine with the
//! causal log and the per-link series on and produces the congestion
//! attribution table: *"flow F lost T ns on link L during bucket B
//! because of competing flows {G, H}"*. The numbers are accounting
//! identities, not estimates, and every run enforces that:
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
//! `--out` writes the full machine-readable report (all rows). Without
//! `--check` the summary baseline `BENCH_congestion.json` is written to
//! the working directory; `--check PATH` instead fails if any pattern's
//! digest, total lost time or hotspot ranking differs from the committed
//! baseline — the CI gate that keeps congestion behavior pinned.

use xt3_node::par::run_parallel;
use xt3_node::workloads::{
    expected_hdr_sum, pattern_stats, traffic_machine, PatternStats, TrafficPattern,
};
use xt3_node::Machine;
use xt3_sim::{RunOutcome, SimTime};
use xt3_telemetry::{
    attribute, attribute_occupancy, extract_chains, CongestionTable, CritPathError, JsonWriter,
    SeriesConfig,
};
use xt3_topology::coord::Dims;

use crate::cli::{positive, write_file, Args, CmdResult};
use crate::{gate, machines};

/// The arguments, and what each flag means.
pub const USAGE: &str = "\
[--dims XxYxZ] [--rounds N] [--msg BYTES] [--top K] [--out PATH] [--trace PATH] [--check PATH]

--dims XxYxZ   torus dimensions (default 4x4x2)
--rounds N     repetitions of each pattern's target list (default 2)
--msg BYTES    put payload size (default 4096)
--top K        hotspot links to rank (default 8)
--out PATH     write the full machine-readable report JSON
--trace PATH   write a Perfetto trace (spans + flows + counter tracks)
               of the incast run
--check PATH   compare against a committed baseline; exit 1 on drift";

/// What one invocation sweeps.
#[derive(Clone, Copy)]
struct Sweep {
    dims: Dims,
    rounds: u32,
    msg: u64,
    top_k: usize,
}

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

fn build(pattern: TrafficPattern, sweep: Sweep) -> Machine {
    let mut m = traffic_machine(pattern, sweep.dims, sweep.rounds, sweep.msg);
    // Read by the window driver alone: its shards record spans, the
    // serial runs' registry stays off.
    m.config.telemetry = true;
    machines::observe(&mut m, false, true, Some(report_series_config()));
    m
}

fn run_serial(pattern: TrafficPattern, sweep: Sweep) -> ObservedRun {
    let top_k = sweep.top_k;
    let mut engine = build(pattern, sweep).into_engine();
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
    let occ_dropped = machines::links(series).map(|l| l.occ_dropped()).sum();
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

/// Run the pattern serially (twice) and in parallel, enforce every
/// identity, and return the verified primary run.
fn run_pattern(pattern: TrafficPattern, sweep: Sweep) -> ObservedRun {
    let Sweep { dims, rounds, .. } = sweep;
    let top_k = sweep.top_k;
    let name = pattern.name();
    let run = run_serial(pattern, sweep);

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
    let rerun = run_serial(pattern, sweep);
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
    let par = run_parallel(build(pattern, sweep), 2);
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

    run
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

fn mesh(text: &str) -> Option<Dims> {
    let sides: Vec<u16> = text.split('x').map(positive).collect::<Option<_>>()?;
    match sides[..] {
        [x, y, z] => Some(Dims::mesh(x, y, z)),
        _ => None,
    }
}

/// Sweep every pattern, enforce the identities, write or check the baseline.
pub fn run(mut args: Args) -> CmdResult {
    let sweep = Sweep {
        dims: args.parsed("--dims", mesh)?.unwrap_or(Dims::mesh(4, 4, 2)),
        rounds: args.parsed("--rounds", positive)?.unwrap_or(2),
        msg: args.parsed("--msg", positive)?.unwrap_or(4096),
        top_k: args.parsed("--top", positive)?.unwrap_or(8),
    };
    let out = args.value("--out")?;
    let trace = args.value("--trace")?;
    let check = args.value("--check")?;
    args.finish()?;

    let shape = format!("{}x{}x{}", sweep.dims.nx, sweep.dims.ny, sweep.dims.nz);
    println!(
        "congestion_report: {shape} torus, {} round(s), {} B puts, top-{} hotspots",
        sweep.rounds, sweep.msg, sweep.top_k
    );

    let mut reports = Vec::new();
    for pattern in TrafficPattern::ALL {
        println!();
        println!("=== {} ===", pattern.name());
        let run = run_pattern(pattern, sweep);
        print_pattern(&run);
        if let (TrafficPattern::Incast, Some(path)) = (pattern, &trace) {
            write_file(path, &run.perfetto)?;
            println!("Perfetto trace (incast) written to {path}");
        }
        reports.push((pattern, run));
    }

    println!();
    let truncated = reports.iter().filter(|r| r.1.causal.is_err()).count();
    if truncated == 0 {
        println!("all identities held: zero residual, occupancy == causal attribution,");
    } else {
        println!("{truncated} pattern(s) overflowed the causal log and were attributed from the");
        println!("series alone; for the rest: zero residual, occupancy == causal attribution;");
    }
    println!("repeat and 2-worker parallel runs byte-identical per pattern");

    let baseline = render(&reports, &shape, sweep, false);
    if let Some(path) = &out {
        write_file(path, render(&reports, &shape, sweep, true))?;
        println!("full report written to {path}");
    }
    match check {
        Some(path) => gate::check_congestion(&path, &baseline)?,
        None => {
            let path = "BENCH_congestion.json";
            write_file(path, &baseline)?;
            println!("baseline written to {path}");
        }
    }
    Ok(())
}

/// Rows actually shown per pattern; the full set goes to `--out`.
const SHOW_ROWS: usize = 12;

fn print_pattern(run: &ObservedRun) {
    println!(
        "messages {}   elapsed {:.1} us   events {}   digest {:#018x}",
        run.stats.received,
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

/// The committed baseline — per-pattern digest, loss totals and hotspot
/// ranking, everything in it simulation-deterministic — or, with `full`,
/// the `--out` report: digest plus every attribution row and the
/// complete series for each pattern.
fn render(
    reports: &[(TrafficPattern, ObservedRun)],
    shape: &str,
    sweep: Sweep,
    full: bool,
) -> String {
    let mut w = JsonWriter::new();
    w.object(true)
        .field_str(
            "bench",
            if full {
                "congestion-full"
            } else {
                "congestion"
            },
        )
        .field_str("dims", shape);
    w.glue().field("rounds", sweep.rounds);
    w.glue().field("msg", sweep.msg);
    w.glue().field("top", sweep.top_k);
    w.key("patterns").array(true);
    for (pattern, run) in reports {
        let table = &run.table;
        w.object(false)
            .field_str("pattern", pattern.name())
            .field_str("digest", &format!("{:#018x}", run.digest));
        if full {
            w.field("attribution", table.render_json())
                .field("series", &run.series_json)
                .end();
            continue;
        }
        w.field("messages", run.stats.received)
            .field("events", run.dispatched)
            .field("elapsed_ps", run.elapsed.ps())
            .field("total_lost_ps", table.total_lost.ps())
            .field("stalled", table.rows.len());
        w.key("hotspots").array(false);
        for h in &table.hotspots {
            w.object(false)
                .field("node", h.node)
                .field("port", h.port)
                .field("stall_ps", h.stall.ps())
                .field("msgs", h.msgs)
                .end();
        }
        w.end().end();
    }
    w.end().end();
    w.finish()
}
