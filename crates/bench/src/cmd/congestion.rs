//! `explain congestion`: the fabric congestion observatory — per-pattern
//! hotspot attribution over the traffic suite.
//!
//! For every [`TrafficPattern`] this runs the pattern machine with the
//! causal log and the per-link series on and produces the congestion
//! attribution table: *"flow F lost T ns on link L during bucket B
//! because of competing flows {G, H}"*. The numbers are accounting
//! identities, not estimates, and every run enforces that:
//!
//! * the series-derived table ([`attribute_occupancy`]) charges every
//!   link exactly the head-of-line stall, and the same stalled
//!   crossings, that the causal log's folded critical paths charge it
//!   ([`folded`]: each chain folded as its delivery was recorded, so a
//!   run of any length is checked whole), and its total equals their
//!   hop-queueing class to the picosecond;
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
//!
//! `--policy gbn` runs every pattern under go-back-n instead of the
//! paper's shipped panic on pool exhaustion (§4.3). The baseline names
//! its policy, and `--check` refuses a baseline of the other one.

use xt3_node::config::ExhaustionPolicy;
use xt3_node::par::run_parallel;
use xt3_node::workloads::{
    expected_hdr_sum, pattern_stats, traffic_machine, PatternStats, TrafficPattern,
};
use xt3_node::Machine;
use xt3_sim::{RunOutcome, SimTime};
use xt3_telemetry::{
    attribute_occupancy, folded, CongestionTable, CostClass, HopStall, JsonWriter, SeriesConfig,
};
use xt3_topology::coord::Dims;

use crate::cli::{positive, write_file, Args, CmdResult};
use crate::{gate, machines};

/// The arguments, and what each flag means.
pub const USAGE: &str = "\
[--dims XxYxZ] [--rounds N] [--msg BYTES] [--top K] [--policy panic|gbn] [--out PATH]
[--trace PATH] [--check PATH]

--dims XxYxZ   torus dimensions (default 4x4x2)
--rounds N     repetitions of each pattern's target list (default 2)
--msg BYTES    put payload size (default 4096)
--top K        hotspot links to rank (default 8)
--policy P     pool exhaustion policy: panic (the paper's, default) or gbn
               (go-back-n retransmission)
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
    policy: ExhaustionPolicy,
}

/// The `--policy` values, by the name the baseline records.
fn policy(text: &str) -> Option<ExhaustionPolicy> {
    match text {
        "panic" => Some(ExhaustionPolicy::Panic),
        "gbn" => Some(ExhaustionPolicy::GoBackN),
        _ => None,
    }
}

fn policy_name(policy: ExhaustionPolicy) -> &'static str {
    match policy {
        ExhaustionPolicy::Panic => "panic",
        ExhaustionPolicy::GoBackN => "gbn",
    }
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
    /// The folded critical paths' per-link head-of-line stalls and their
    /// hop-queueing class, which `table` must reproduce; or why the
    /// causal log cannot give them.
    fold: Result<(Vec<HopStall>, SimTime), String>,
    /// Causal records made.
    records: u64,
    series_json: String,
    /// Occupancy entries dropped across all links (must be 0).
    occ_dropped: u64,
    stats: PatternStats,
}

/// What the summary baseline reads of a verified run, once its
/// documents are written and dropped.
struct Summary {
    digest: u64,
    received: u64,
    dispatched: u64,
    elapsed: SimTime,
    total_lost: SimTime,
    stalled: usize,
    hotspots: Vec<xt3_telemetry::Hotspot>,
}

impl ObservedRun {
    fn summary(self) -> Summary {
        Summary {
            digest: self.digest,
            received: self.stats.received,
            dispatched: self.dispatched,
            elapsed: self.elapsed,
            total_lost: self.table.total_lost,
            stalled: self.table.rows.len(),
            hotspots: self.table.hotspots,
        }
    }
}

fn build(pattern: TrafficPattern, sweep: Sweep) -> Machine {
    let mut m = traffic_machine(pattern, sweep.dims, sweep.rounds, sweep.msg);
    m.config.exhaustion = sweep.policy;
    // Read by the window driver alone: its shards record spans, the
    // serial runs' registry stays off.
    m.config.telemetry = true;
    machines::observe(&mut m, false, true, Some(report_series_config()));
    m
}

/// `Ok` if `holds`, else the failure naming `pattern` and `identity`.
fn fence(holds: bool, pattern: &str, identity: &str) -> Result<(), String> {
    if holds {
        Ok(())
    } else {
        Err(format!("{pattern}: {identity}"))
    }
}

/// One serial observed run; with `trace`, its Perfetto document is
/// written there (and not kept).
fn run_serial(
    pattern: TrafficPattern,
    sweep: Sweep,
    trace: Option<&str>,
) -> Result<ObservedRun, String> {
    let top_k = sweep.top_k;
    let mut engine = build(pattern, sweep).into_engine();
    let outcome = engine.run();
    fence(outcome == RunOutcome::Drained, pattern.name(), "must drain")?;
    let digest = engine.digest();
    let fingerprint = engine.state_fingerprint();
    let elapsed = engine.now();
    let dispatched = engine.dispatched();
    let mut m = engine.into_model();

    let series = m.link_series().expect("series enabled");
    let fold = folded(m.causal()).map_err(|e| e.to_string());
    let fold = fold.map(|f| {
        (
            f.hop_stalls().collect(),
            f.breakdown().get(CostClass::HopQueue),
        )
    });
    let records = m.causal().made();
    let mut table = attribute_occupancy(series, top_k, 4);
    table.canonicalize();
    let series_json = series.to_json();
    let occ_dropped = machines::links(series).map(|l| l.occ_dropped()).sum();
    if let Some(path) = trace {
        let perfetto = m
            .telemetry()
            .perfetto_json_full(Some(m.causal()), m.link_series());
        write_file(path, perfetto)?;
        println!("Perfetto trace ({}) written to {path}", pattern.name());
    }
    let stats = pattern_stats(&mut m);
    Ok(ObservedRun {
        digest,
        fingerprint,
        elapsed,
        dispatched,
        table,
        fold,
        records,
        series_json,
        occ_dropped,
        stats,
    })
}

/// Every expected put arrived, uncorrupted, with the exact provenance
/// header sum.
fn check_arrivals(
    pattern: TrafficPattern,
    sweep: Sweep,
    stats: &PatternStats,
) -> Result<(), String> {
    let Sweep { dims, rounds, .. } = sweep;
    let name = pattern.name();
    fence(stats.outstanding == 0, name, "missing arrivals")?;
    fence(!stats.corrupt, name, "payload corruption")?;
    let seed = xt3_node::config::MachineConfig::paper(dims).seed;
    fence(
        stats.hdr_sum == expected_hdr_sum(pattern, dims, rounds, seed),
        name,
        "provenance sum mismatch",
    )
}

/// Run the pattern serially (twice) and in parallel, enforce every
/// identity, and return the verified primary run (whose Perfetto document
/// went to `trace`, if given).
fn run_pattern(
    pattern: TrafficPattern,
    sweep: Sweep,
    trace: Option<&str>,
) -> Result<ObservedRun, String> {
    let top_k = sweep.top_k;
    let name = pattern.name();
    let run = run_serial(pattern, sweep, trace)?;

    // Accounting fences on the primary run: every message arrived (a
    // lost one stalled on links but ends no chain), then the identities.
    fence(run.occ_dropped == 0, name, "occupancy log overflowed")?;
    check_arrivals(pattern, sweep, &run.stats)?;
    let (hops, hop_queueing) = run
        .fold
        .as_ref()
        .map_err(|e| format!("{name}: the causal log cannot be attributed: {e}"))?;
    fence(
        run.table.total_lost == *hop_queueing,
        name,
        "the table's total must equal the folded hop-queueing class",
    )?;
    same_links(&run.table, hops).map_err(|e| format!("{name}: {e}"))?;

    // Repeat serial run: everything byte-identical.
    let rerun = run_serial(pattern, sweep, None)?;
    fence(run.digest == rerun.digest, name, "repeat digest")?;
    fence(
        run.fingerprint == rerun.fingerprint,
        name,
        "repeat fingerprint",
    )?;
    fence(
        run.series_json == rerun.series_json,
        name,
        "repeat series JSON",
    )?;
    same_table(
        &run.table,
        &rerun.table,
        &format!("{name}: repeat attribution table"),
    )?;

    // Parallel run: the coordinator owns the real fabric, so the series
    // — and the series-derived attribution table — must come back byte
    // for byte. Digest and fingerprint pin everything else.
    let par = run_parallel(build(pattern, sweep), 2);
    fence(par.digest == run.digest, name, "parallel digest")?;
    fence(
        par.state_fingerprint == run.fingerprint,
        name,
        "parallel fingerprint",
    )?;
    let par_series = par.machine.link_series().expect("series survive merge");
    fence(
        par_series.to_json() == run.series_json,
        name,
        "parallel series JSON",
    )?;
    let mut par_occ = attribute_occupancy(par_series, top_k, 4);
    par_occ.canonicalize();
    same_table(
        &run.table,
        &par_occ,
        &format!("{name}: parallel attribution table"),
    )?;

    Ok(run)
}

/// The table's stall and stalled crossings per link must be the folded
/// critical paths' `hops`, link for link; the first link that differs is
/// the failure.
fn same_links(table: &CongestionTable, hops: &[HopStall]) -> Result<(), String> {
    let mut links: Vec<HopStall> = Vec::new();
    for row in &table.rows {
        match links.last_mut() {
            Some(l) if (l.node, l.port) == (row.node, row.port) => {
                l.stall += row.lost;
                l.waits += 1;
            }
            _ => links.push(HopStall {
                node: row.node,
                port: row.port,
                stall: row.lost,
                waits: 1,
            }),
        }
    }
    match links.iter().zip(hops).position(|(a, b)| a != b) {
        None if links.len() == hops.len() => Ok(()),
        at => Err(format!(
            "occupancy stalls {} links, the folded critical paths {}; first difference at link {}:\n  {:?}\n  {:?}",
            links.len(),
            hops.len(),
            at.unwrap_or(links.len().min(hops.len())),
            at.map(|i| links[i]),
            at.map(|i| hops[i]),
        )),
    }
}

/// Two attribution tables that must be the same table. On a contended
/// machine one renders to hundreds of megabytes, so a mismatch reports
/// the row counts and the first differing row, never both tables.
fn same_table(a: &CongestionTable, b: &CongestionTable, what: &str) -> Result<(), String> {
    if a == b {
        return Ok(());
    }
    let first = a.rows.iter().zip(&b.rows).position(|(x, y)| x != y);
    Err(match first {
        Some(at) => format!(
            "{what}: {} vs {} rows, first difference at row {at}:\n  {:?}\n  {:?}",
            a.rows.len(),
            b.rows.len(),
            a.rows[at],
            b.rows[at]
        ),
        None => format!(
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
    })
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
        policy: args
            .parsed("--policy", policy)?
            .unwrap_or(ExhaustionPolicy::Panic),
    };
    let out = args.value("--out")?;
    let trace = args.value("--trace")?;
    let check = args.value("--check")?;
    args.finish()?;

    let shape = format!("{}x{}x{}", sweep.dims.nx, sweep.dims.ny, sweep.dims.nz);
    println!(
        "congestion_report: {shape} torus, {} round(s), {} B puts, top-{} hotspots, {} policy",
        sweep.rounds,
        sweep.msg,
        sweep.top_k,
        policy_name(sweep.policy)
    );

    // Each pattern's documents — the Perfetto trace, the full report's
    // entry — are written as the pattern finishes and dropped; only the
    // summary is kept.
    let mut full = match &out {
        Some(path) => Some(FullReport::create(path, &shape, sweep)?),
        None => None,
    };
    let mut reports = Vec::new();
    for pattern in TrafficPattern::ALL {
        println!();
        println!("=== {} ===", pattern.name());
        let trace = trace
            .as_deref()
            .filter(|_| pattern == TrafficPattern::Incast);
        let run = run_pattern(pattern, sweep, trace)?;
        print_pattern(&run);
        if let Some(full) = &mut full {
            full.push(pattern, &run)?;
        }
        reports.push((pattern, run.summary()));
    }

    println!();
    println!("all identities held: per-link stall, occupancy == folded critical paths,");
    println!("with 0 causal records dropped; repeat and 2-worker parallel runs");
    println!("byte-identical per pattern");

    let baseline = render(&reports, &shape, sweep);
    if let (Some(full), Some(path)) = (full, &out) {
        full.finish()?;
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
        "hop-queueing lost {:.1} us across {} stalled crossings (== folded critical paths \
         over {} causal records, 0 dropped)",
        run.table.total_lost.as_ns_f64() / 1e3,
        run.table.rows.len(),
        run.records
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

/// The report's opening fields, into `w`'s open top-level object.
fn header(w: &mut JsonWriter, bench: &str, shape: &str, sweep: Sweep) {
    w.field_str("bench", bench).field_str("dims", shape);
    w.glue().field("rounds", sweep.rounds);
    w.glue().field("msg", sweep.msg);
    w.glue().field("top", sweep.top_k);
    w.glue().field_str("policy", policy_name(sweep.policy));
}

/// The committed baseline: per-pattern digest, loss totals and hotspot
/// ranking, everything in it simulation-deterministic.
fn render(reports: &[(TrafficPattern, Summary)], shape: &str, sweep: Sweep) -> String {
    let mut w = JsonWriter::new();
    w.object(true);
    header(&mut w, "congestion", shape, sweep);
    w.key("patterns").array(true);
    for (pattern, run) in reports {
        w.object(false)
            .field_str("pattern", pattern.name())
            .field_str("digest", &format!("{:#018x}", run.digest))
            .field("messages", run.received)
            .field("events", run.dispatched)
            .field("elapsed_ps", run.elapsed.ps())
            .field("total_lost_ps", run.total_lost.ps())
            .field("stalled", run.stalled);
        w.key("hotspots").array(false);
        for h in &run.hotspots {
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

/// The `--out` report — each pattern's digest, every attribution row and
/// its complete series — written a pattern at a time.
struct FullReport {
    file: std::io::BufWriter<std::fs::File>,
    path: String,
    /// The document's close, after the last pattern.
    tail: String,
    patterns: usize,
}

impl FullReport {
    fn create(path: &str, shape: &str, sweep: Sweep) -> Result<Self, String> {
        // The frame is an empty report, split where its pattern array opens.
        let mut w = JsonWriter::new();
        w.object(true);
        header(&mut w, "congestion-full", shape, sweep);
        w.key("patterns").array(true).end().end();
        let frame = w.finish();
        let (head, tail) = frame.split_at(frame.find('[').map_or(0, |i| i + 1));
        let file =
            std::fs::File::create(path).map_err(|e| format!("failed to write {path}: {e}"))?;
        let mut report = FullReport {
            file: std::io::BufWriter::new(file),
            path: path.to_string(),
            tail: tail.to_string(),
            patterns: 0,
        };
        report.write(head)?;
        Ok(report)
    }

    fn write(&mut self, text: &str) -> Result<(), String> {
        use std::io::Write;
        let failed = |e| format!("failed to write {}: {e}", self.path);
        self.file.write_all(text.as_bytes()).map_err(failed)
    }

    /// One pattern's entry.
    fn push(&mut self, pattern: TrafficPattern, run: &ObservedRun) -> Result<(), String> {
        let mut w = JsonWriter::new();
        w.object(false)
            .field_str("pattern", pattern.name())
            .field_str("digest", &format!("{:#018x}", run.digest))
            .field("attribution", run.table.render_json())
            .field("series", &run.series_json)
            .end();
        let entry = w.finish();
        let sep = if self.patterns == 0 { "" } else { "," };
        self.patterns += 1;
        self.write(&format!("{sep}\n    {}", entry.trim_end()))
    }

    fn finish(mut self) -> Result<(), String> {
        let tail = std::mem::take(&mut self.tail);
        self.write(&tail)?;
        use std::io::Write;
        self.file
            .flush()
            .map_err(|e| format!("failed to write {}: {e}", self.path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_missing_arrival_fails_the_run_without_a_panic() {
        let sweep = Sweep {
            dims: Dims::mesh(2, 1, 1),
            rounds: 1,
            msg: 64,
            top_k: 1,
            policy: ExhaustionPolicy::Panic,
        };
        let stats = PatternStats {
            outstanding: 1,
            ..PatternStats::default()
        };
        let err = check_arrivals(TrafficPattern::AllToAll, sweep, &stats).unwrap_err();
        assert_eq!(err, "alltoall: missing arrivals");
    }
}
