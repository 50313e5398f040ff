//! `explain latency`: causal critical-path latency attribution — *where*
//! each microsecond of Fig. 4 goes.
//!
//! For every message size, runs one single-size NetPIPE ping-pong with
//! the causal tracer on, extracts the critical-path chain of each
//! delivered message, and partitions the measured half-round-trip into
//! eight cost classes (trap, fw-tx, dma, wire, hop-queueing, interrupt,
//! fw-rx, host-completion). The partition is exact: per size, the class
//! totals sum to the measured round time with **zero residual**, so the
//! table is an accounting identity, not an estimate.
//!
//! `--transport rma` attributes the one-sided put ping-pong: the RMA
//! window completion path raises Ack and fence-barrier traffic alongside
//! the data puts, so attribution keeps only data-bearing chains (the
//! sync chains are zero-byte by construction) — the partition over the
//! measured window stays exact. `--compare` runs the one-sided put
//! against both two-sided personalities at the same sizes and prints the
//! per-class deltas: the table that says *why* RMA beats or loses to
//! eager/rendezvous at each message size.
//!
//! The `--baseline`/`--candidate` form diffs two JSON outputs of the
//! first form and exits non-zero when the candidate's total latency
//! regresses beyond the tolerance at any common size.

use std::collections::BTreeMap;

use xt3_netpipe::runner::{
    critical_chains, run_explained, tiled_chains, NetpipeConfig, TestKind, Transport,
};
use xt3_netpipe::Schedule;
use xt3_sim::SimTime;
use xt3_telemetry::{aggregate, Breakdown, Chain, CostClass, HopStall, JsonValue, JsonWriter};

use crate::cli::{csv, positive, write_file, ArgError, Args, CmdResult};
use crate::gate::Baseline;

/// The arguments, and what each flag means.
pub const USAGE: &str = "\
[--sizes CSV] [--reps N] [--quick] [--transport T] [--compare] [--out PATH] [--trace PATH] | --baseline A --candidate B [--tol-ns N]

--sizes CSV       comma-separated message sizes (default Fig. 4 domain)
--reps N          ping-pong iterations per size (default 20)
--transport T     put (default), get, rma (one-sided put over a window),
                  mpich1 (eager) or mpich2 (rendezvous)
--compare         RMA vs two-sided: per-class breakdown of all three
                  ping-pongs at the same sizes, plus the deltas
--quick           small size list + 5 reps (CI smoke configuration)
--out PATH        write per-size breakdown JSON
--trace PATH      write a Perfetto flow trace of the first size's run
--baseline PATH   diff mode: reference breakdown JSON
--candidate PATH  diff mode: JSON to compare against the baseline
--tol-ns N        diff mode: allowed total-latency regression (default 100)";

/// One size's exact cost-class accounting.
struct SizeRow {
    size: u64,
    /// Messages the round timed (2·reps for ping-pong put).
    messages: u32,
    /// Total measured round time.
    elapsed: SimTime,
    /// Critical-path chains inside the measured window.
    chains: usize,
    /// Per-class totals over the round; with `turnaround`, sums exactly
    /// to `elapsed`.
    classes: Breakdown,
    /// Library/application time between a delivery and the next
    /// injection (zero for the raw Portals transports, whose drivers
    /// reply in the delivery instant; the personalities pay event
    /// draining and matching here).
    turnaround: SimTime,
    /// `|elapsed - (classes.total() + turnaround)|`; zero unless
    /// attribution failed (under- *or* over-counted).
    residual: SimTime,
}

impl SizeRow {
    fn latency_ns(&self) -> f64 {
        self.elapsed.as_ns_f64() / f64::from(self.messages)
    }

    fn class_ns(&self, class: CostClass) -> f64 {
        self.classes.get(class).as_ns_f64() / f64::from(self.messages)
    }

    fn turnaround_ns(&self) -> f64 {
        self.turnaround.as_ns_f64() / f64::from(self.messages)
    }
}

fn transport(name: &str) -> Option<Transport> {
    Some(match name {
        "put" => Transport::Put,
        "get" => Transport::Get,
        "rma" => Transport::Rma,
        "mpich1" => Transport::Mpich1,
        "mpich2" => Transport::Mpich2,
        _ => return None,
    })
}

/// Measure (the default), `--compare`, or diff two `--out` files.
pub fn run(mut args: Args) -> CmdResult {
    let quick = args.flag("--quick");
    let sizes = args.parsed("--sizes", |list| csv(list, |s| s.parse::<u64>().ok()))?;
    let sizes = sizes.unwrap_or_else(|| match quick {
        true => vec![1, 8, 12, 13, 64, 1024],
        false => vec![1, 2, 4, 8, 12, 13, 16, 32, 64, 128, 256, 512, 1024],
    });
    let reps = args.parsed("--reps", positive::<u32>)?;
    let reps = reps.unwrap_or(if quick { 5 } else { 20 });
    let transport = args.parsed("--transport", transport)?;
    let compare = args.flag("--compare");
    let out = args.value("--out")?;
    let trace = args.value("--trace")?;
    let baseline = args.value("--baseline")?;
    let candidate = args.value("--candidate")?;
    let tol_ns = args.parsed("--tol-ns", |t| t.parse::<f64>().ok())?;
    args.finish()?;

    match (baseline, candidate) {
        (Some(b), Some(c)) => diff_mode(&b, &c, tol_ns.unwrap_or(100.0)),
        (None, None) if compare => compare_mode(&sizes, reps),
        (None, None) => {
            let transport = transport.unwrap_or(Transport::Put);
            measure_mode(&sizes, reps, transport, out.as_deref(), trace.as_deref())
        }
        (Some(_), None) => Err(ArgError::MissingValue("--candidate".into()).into()),
        (None, Some(_)) => Err(ArgError::MissingValue("--baseline".into()).into()),
    }
}

// ---------------------------------------------------------------- measure

fn measure_mode(
    sizes: &[u64],
    reps: u32,
    transport: Transport,
    out: Option<&str>,
    trace: Option<&str>,
) -> CmdResult {
    println!(
        "latency_explain: {} ping-pong, {} size(s), {} rep(s) each",
        transport.label(),
        sizes.len(),
        reps
    );
    println!();
    let (rows, hops) = measure_rows(sizes, reps, transport, trace)?;
    if let Some(path) = out {
        write_file(path, render_json(&rows, &hops, reps, transport))?;
        println!("breakdown JSON written to {path}");
    }
    Ok(())
}

/// Run one explained ping-pong per size, account each round, print the
/// tables and hold the accounting to zero residual.
fn measure_rows(
    sizes: &[u64],
    reps: u32,
    transport: Transport,
    trace: Option<&str>,
) -> Result<(Vec<SizeRow>, Vec<HopStall>), String> {
    let mut rows = Vec::new();
    let mut hop_acc: BTreeMap<(u32, i16), (xt3_sim::SimTime, u64)> = BTreeMap::new();
    for (i, &size) in sizes.iter().enumerate() {
        let mut config = NetpipeConfig::paper_latency();
        config.schedule = Schedule::fixed(size, reps);
        // A run that overflowed the causal log has no exact breakdown:
        // refuse it by name rather than account the chains the cap left.
        let run = run_explained(&config, transport, TestKind::PingPong)
            .map_err(|e| format!("{size} B: {e}"))?;
        assert_eq!(run.rounds.len(), 1, "fixed schedule yields one round");
        let round = run.rounds[0];
        if let (0, Some(path)) = (i, trace) {
            write_file(path, &run.perfetto)?;
            println!("flow trace ({} B run) written to {path}", size);
        }
        // Per-run identity: the per-link fold covers the aggregate
        // hop-queueing class over all chains exactly.
        let hop_total: SimTime = run.hops.iter().map(|h| h.stall).sum();
        assert_eq!(
            hop_total,
            aggregate(&run.chains).get(CostClass::HopQueue),
            "per-hop fold must cover hop-queueing exactly at {size} B"
        );
        for h in &run.hops {
            let key = (h.node, h.port.map_or(-1, i16::from));
            let e = hop_acc.entry(key).or_insert((SimTime::ZERO, 0));
            e.0 += h.stall;
            e.1 += h.waits;
        }
        rows.push(account(size, round, &run.chains, transport));
    }
    let hops: Vec<HopStall> = hop_acc
        .into_iter()
        .map(|((node, port), (stall, waits))| HopStall {
            node,
            port: u8::try_from(port).ok(),
            stall,
            waits,
        })
        .collect();
    print_table(&rows);
    print_hops(&hops);
    assert_exact(&rows)?;
    Ok((rows, hops))
}

/// The attribution is an accounting identity — enforce it.
fn assert_exact(rows: &[SizeRow]) -> Result<(), String> {
    let residual: u64 = rows.iter().map(|r| r.residual.ps()).sum();
    println!();
    println!("attribution residual over all sizes: {residual} ps");
    match residual {
        0 => Ok(()),
        _ => Err("attribution must be exact".into()),
    }
}

/// RMA vs two-sided: run the one-sided put ping-pong and both two-sided
/// personalities at the same sizes, print each breakdown, then the
/// per-class deltas. Every number is exact (zero-residual), so the delta
/// rows *are* the explanation: whichever classes go negative are where
/// the one-sided path saves its time (no match/rendezvous turnaround in
/// host-completion), and positives are what it pays back (the window
/// deposit's DMA setup).
fn compare_mode(sizes: &[u64], reps: u32) -> CmdResult {
    let contenders = [
        (Transport::Rma, "rma-put"),
        (Transport::Mpich1, "eager"),
        (Transport::Mpich2, "rendezvous"),
    ];
    println!(
        "latency_explain: one-sided vs two-sided ping-pong, {} size(s), {} rep(s) each",
        sizes.len(),
        reps
    );
    let mut all = Vec::new();
    for (transport, label) in contenders {
        println!();
        println!("--- {label} ---");
        all.push((label, measure_rows(sizes, reps, transport, None)?.0));
    }

    println!();
    println!("--- per-class delta vs rma-put (ns/message; negative = rma faster) ---");
    print!("{:>7} {:>11}", "size B", "contender");
    for c in CostClass::ALL {
        print!(" {:>10}", c.name());
    }
    println!(" {:>10} {:>9}", "turnaround", "total");
    let (_, rma_rows) = &all[0];
    for (label, rows) in &all[1..] {
        for (r, base) in rows.iter().zip(rma_rows) {
            assert_eq!(r.size, base.size, "size lists must align");
            print!("{:>7} {:>11}", r.size, label);
            for c in CostClass::ALL {
                print!(" {:>+10.1}", base.class_ns(c) - r.class_ns(c));
            }
            println!(
                " {:>+10.1} {:>+9.1}",
                base.turnaround_ns() - r.turnaround_ns(),
                base.latency_ns() - r.latency_ns()
            );
        }
    }
    Ok(())
}

/// Sum the breakdowns of the chains that partition `round`'s measured
/// window (see [`critical_chains`] for the selection rules). A get is
/// measured by the requester alone, so its deliveries are filtered to
/// node 0. The one-sided put completes through MD Ack events and fences
/// between rounds — both raise zero-byte chains off the critical data
/// path — so RMA attribution keeps data-bearing chains only; the
/// ping-pong data deliveries then tile the measured window exactly, as
/// in the two-sided cases.
fn account(
    size: u64,
    round: xt3_netpipe::RoundResult,
    chains: &[Chain],
    transport: Transport,
) -> SizeRow {
    let (critical, turnaround) = match transport {
        // Raw Portals drivers reply in the delivery instant, so the
        // latest-delivery-per-id rule tiles with zero turnaround.
        Transport::Put | Transport::Get => {
            let filter = (transport == Transport::Get).then_some(0);
            (critical_chains(chains, &round, filter), SimTime::ZERO)
        }
        // The personalities consume several events per message and run
        // library code between delivery and reply: tile by resumption
        // and account the turnaround explicitly. RMA additionally drops
        // the zero-byte sync chains (fences, acks).
        Transport::Rma | Transport::Mpich1 | Transport::Mpich2 => {
            let tiled = tiled_chains(chains, &round, None, transport == Transport::Rma)
                .unwrap_or_else(|| {
                    panic!("no per-message tiling for {} @ {size} B", transport.label())
                });
            (tiled.chains, tiled.turnaround)
        }
    };
    let mut classes = Breakdown::new();
    for c in &critical {
        classes.merge(&c.breakdown);
    }
    let kept = critical.len();
    let covered = classes.total() + turnaround;
    let residual = covered
        .checked_sub(round.elapsed)
        .unwrap_or_else(|| round.elapsed.saturating_sub(covered));
    SizeRow {
        size,
        messages: round.messages,
        elapsed: round.elapsed,
        chains: kept,
        classes,
        turnaround,
        residual,
    }
}

fn print_table(rows: &[SizeRow]) {
    print!("{:>7} {:>10}", "size B", "lat ns");
    for c in CostClass::ALL {
        print!(" {:>10}", c.name());
    }
    println!(" {:>10} {:>6} {:>8}", "turnaround", "chains", "resid");
    for r in rows {
        print!("{:>7} {:>10.1}", r.size, r.latency_ns());
        for c in CostClass::ALL {
            print!(" {:>10.1}", r.class_ns(c));
        }
        println!(
            " {:>10.1} {:>6} {:>8}",
            r.turnaround_ns(),
            r.chains,
            r.residual.ps()
        );
    }
}

/// Per-hop hop-queueing breakout: where the aggregate class was paid.
/// Covers *all* delivered chains (not just the critical selection), so
/// control traffic outside the timed window appears here too.
fn print_hops(hops: &[HopStall]) {
    if hops.is_empty() {
        return;
    }
    println!();
    println!("per-hop hop-queueing (all delivered messages, every size):");
    println!("{:<16} {:>12} {:>8}", "link", "stall ns", "waits");
    for h in hops {
        println!(
            "{:<16} {:>12.1} {:>8}",
            h.label(),
            h.stall.as_ns_f64(),
            h.waits
        );
    }
}

fn render_json(rows: &[SizeRow], hops: &[HopStall], reps: u32, transport: Transport) -> String {
    let mut w = JsonWriter::new();
    w.object(true)
        .field_str("bench", "latency-explain")
        .field_str("transport", transport.label())
        .field_str("kind", "pingpong")
        .field("reps", reps);
    w.key("sizes").array(true);
    for r in rows {
        // `dropped` stays in the format (older documents are diffed
        // against newer ones); a row only exists for a complete log.
        w.object(false)
            .field("size", r.size)
            .field("messages", r.messages)
            .field("elapsed_ps", r.elapsed.ps())
            .field("latency_ns", format_args!("{:.3}", r.latency_ns()))
            .field("chains", r.chains)
            .field("residual_ps", r.residual.ps())
            .field("dropped", 0)
            .field("turnaround_ps", r.turnaround.ps());
        w.key("classes_ps").object(false);
        for c in CostClass::ALL {
            w.field(c.name(), r.classes.get(c).ps());
        }
        w.end().end();
    }
    w.end().key("hops").array(true);
    for h in hops {
        w.object(false)
            .field("node", h.node)
            .field("port", h.port.map_or(-1, i64::from))
            .field("stall_ps", h.stall.ps())
            .field("waits", h.waits)
            .end();
    }
    w.end().end();
    w.finish()
}

// ------------------------------------------------------------------- diff

/// Number `field` of one `sizes` row of a breakdown file.
fn number(row: &JsonValue, field: &str) -> f64 {
    row.get(field).and_then(JsonValue::as_f64).unwrap_or(0.0)
}

/// Per-message nanoseconds of `class` in one `sizes` row.
fn row_class_ns(row: &JsonValue, class: CostClass) -> f64 {
    let ps = row
        .get("classes_ps")
        .map_or(0.0, |c| number(c, class.name()));
    ps / 1e3 / number(row, "messages").max(1.0)
}

fn diff_mode(baseline: &str, candidate: &str, tol_ns: f64) -> CmdResult {
    let base = Baseline::load(baseline)?;
    let cand = Baseline::load(candidate)?;
    let common: Vec<(&JsonValue, &JsonValue)> = base
        .rows("sizes")?
        .iter()
        .filter_map(|b| {
            let size = number(b, "size").to_string();
            Some((b, cand.row("sizes", "size", &size).ok()?))
        })
        .collect();
    if common.is_empty() {
        return Err(format!("no common sizes between {baseline} and {candidate}").into());
    }

    println!("latency_explain diff: {candidate} vs {baseline} (tolerance {tol_ns} ns)");
    println!();
    print!(
        "{:>7} {:>10} {:>10} {:>9}",
        "size B", "base ns", "cand ns", "delta"
    );
    for c in CostClass::ALL {
        print!(" {:>10}", c.name());
    }
    println!();
    let mut regressed = false;
    for (b, c) in common {
        let (base_ns, cand_ns) = (number(b, "latency_ns"), number(c, "latency_ns"));
        let delta = cand_ns - base_ns;
        print!(
            "{:>7} {base_ns:>10.1} {cand_ns:>10.1} {delta:>+9.1}",
            number(b, "size")
        );
        for class in CostClass::ALL {
            print!(
                " {:>+10.1}",
                row_class_ns(c, class) - row_class_ns(b, class)
            );
        }
        println!();
        regressed |= delta > tol_ns;
    }
    println!();
    if regressed {
        return Err(format!("latency regression beyond {tol_ns} ns detected").into());
    }
    println!("no regression beyond {tol_ns} ns");
    Ok(())
}
