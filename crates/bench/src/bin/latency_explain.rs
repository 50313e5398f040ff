//! Causal critical-path latency attribution: *where* each microsecond of
//! Fig. 4 goes.
//!
//! For every message size, runs one single-size NetPIPE ping-pong with
//! the causal tracer on, extracts the critical-path chain of each
//! delivered message, and partitions the measured half-round-trip into
//! eight cost classes (trap, fw-tx, dma, wire, hop-queueing, interrupt,
//! fw-rx, host-completion). The partition is exact: per size, the class
//! totals sum to the measured round time with **zero residual**, so the
//! table is an accounting identity, not an estimate.
//!
//! ```text
//! latency_explain [--sizes CSV] [--reps N] [--quick] [--out PATH] [--trace PATH]
//!                 [--transport put|get|rma|mpich1|mpich2]
//! latency_explain --compare [--sizes CSV] [--reps N] [--quick]
//! latency_explain --baseline a.json --candidate b.json [--tol-ns N]
//! ```
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

use std::fmt::Write as _;
use xt3_netpipe::runner::{
    critical_chains, run_explained, tiled_chains, NetpipeConfig, TestKind, Transport,
};
use xt3_netpipe::Schedule;
use xt3_sim::SimTime;
use xt3_telemetry::{aggregate, parse_json, Breakdown, Chain, CostClass, HopStall, JsonValue};

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

fn usage() -> ! {
    eprintln!(
        "usage: latency_explain [--sizes CSV] [--reps N] [--quick]\n\
         \x20                      [--transport put|get|rma|mpich1|mpich2]\n\
         \x20                      [--out PATH] [--trace PATH]\n\
         \x20      latency_explain --compare [--sizes CSV] [--reps N] [--quick]\n\
         \x20      latency_explain --baseline a.json --candidate b.json [--tol-ns N]\n\
         \n\
         --sizes CSV       comma-separated message sizes (default Fig. 4 domain)\n\
         --reps N          ping-pong iterations per size (default 20)\n\
         --transport T     put (default), get, rma (one-sided put over a window),\n\
         \x20                 mpich1 (eager) or mpich2 (rendezvous)\n\
         --compare         RMA vs two-sided: per-class breakdown of all three\n\
         \x20                 ping-pongs at the same sizes, plus the deltas\n\
         --quick           small size list + 5 reps (CI smoke configuration)\n\
         --out PATH        write per-size breakdown JSON\n\
         --trace PATH      write a Perfetto flow trace of the first size's run\n\
         --baseline PATH   diff mode: reference breakdown JSON\n\
         --candidate PATH  diff mode: JSON to compare against the baseline\n\
         --tol-ns N        diff mode: allowed total-latency regression (default 100)"
    );
    std::process::exit(2)
}

fn main() {
    let mut sizes: Vec<u64> = vec![1, 2, 4, 8, 12, 13, 16, 32, 64, 128, 256, 512, 1024];
    let mut reps: u32 = 20;
    let mut transport = Transport::Put;
    let mut out: Option<String> = None;
    let mut trace: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut candidate: Option<String> = None;
    let mut tol_ns: f64 = 100.0;
    let mut compare = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--sizes" => {
                let csv = args.next().unwrap_or_else(|| usage());
                sizes = csv
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
                if sizes.is_empty() {
                    usage()
                }
            }
            "--reps" => {
                reps = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage())
            }
            "--transport" => {
                transport = match args.next().as_deref() {
                    Some("put") => Transport::Put,
                    Some("get") => Transport::Get,
                    Some("rma") => Transport::Rma,
                    Some("mpich1") => Transport::Mpich1,
                    Some("mpich2") => Transport::Mpich2,
                    _ => usage(),
                }
            }
            "--compare" => compare = true,
            "--quick" => {
                sizes = vec![1, 8, 12, 13, 64, 1024];
                reps = 5;
            }
            "--out" => out = Some(args.next().unwrap_or_else(|| usage())),
            "--trace" => trace = Some(args.next().unwrap_or_else(|| usage())),
            "--baseline" => baseline = Some(args.next().unwrap_or_else(|| usage())),
            "--candidate" => candidate = Some(args.next().unwrap_or_else(|| usage())),
            "--tol-ns" => {
                tol_ns = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage()
            }
        }
    }

    match (baseline, candidate) {
        (Some(b), Some(c)) => diff_mode(&b, &c, tol_ns),
        (None, None) if compare => compare_mode(&sizes, reps),
        (None, None) => measure_mode(&sizes, reps, transport, out.as_deref(), trace.as_deref()),
        _ => {
            eprintln!("--baseline and --candidate must be given together");
            usage()
        }
    }
}

// ---------------------------------------------------------------- measure

fn measure_mode(
    sizes: &[u64],
    reps: u32,
    transport: Transport,
    out: Option<&str>,
    trace: Option<&str>,
) {
    println!(
        "latency_explain: {} ping-pong, {} size(s), {} rep(s) each",
        transport.label(),
        sizes.len(),
        reps
    );
    println!();
    let (rows, hops) = measure_rows(sizes, reps, transport, trace);

    print_table(&rows);
    print_hops(&hops);
    assert_exact(&rows);

    if let Some(path) = out {
        let json = render_json(&rows, &hops, reps, transport);
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("breakdown JSON written to {path}");
    }
}

/// Run one explained ping-pong per size and account each round.
fn measure_rows(
    sizes: &[u64],
    reps: u32,
    transport: Transport,
    trace: Option<&str>,
) -> (Vec<SizeRow>, Vec<HopStall>) {
    use std::collections::BTreeMap;
    let mut rows = Vec::new();
    let mut hop_acc: BTreeMap<(u32, i16), (xt3_sim::SimTime, u64)> = BTreeMap::new();
    for (i, &size) in sizes.iter().enumerate() {
        let mut config = NetpipeConfig::paper_latency();
        config.schedule = Schedule::fixed(size, reps);
        // A run that overflowed the causal log has no exact breakdown:
        // refuse it by name rather than account the chains the cap left.
        let run = run_explained(&config, transport, TestKind::PingPong).unwrap_or_else(|e| {
            eprintln!("latency_explain: {size} B: {e}");
            std::process::exit(1);
        });
        assert_eq!(run.rounds.len(), 1, "fixed schedule yields one round");
        let round = run.rounds[0];
        if let (0, Some(path)) = (i, trace) {
            if let Err(e) = std::fs::write(path, &run.perfetto) {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
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
    let hops = hop_acc
        .into_iter()
        .map(|((node, port), (stall, waits))| HopStall {
            node,
            port: u8::try_from(port).ok(),
            stall,
            waits,
        })
        .collect();
    (rows, hops)
}

/// The attribution is an accounting identity — enforce it.
fn assert_exact(rows: &[SizeRow]) {
    let residual: u64 = rows.iter().map(|r| r.residual.ps()).sum();
    println!();
    println!("attribution residual over all sizes: {residual} ps");
    if residual != 0 {
        eprintln!("latency_explain: attribution must be exact");
        std::process::exit(1);
    }
}

/// RMA vs two-sided: run the one-sided put ping-pong and both two-sided
/// personalities at the same sizes, print each breakdown, then the
/// per-class deltas. Every number is exact (zero-residual), so the delta
/// rows *are* the explanation: whichever classes go negative are where
/// the one-sided path saves its time (no match/rendezvous turnaround in
/// host-completion), and positives are what it pays back (the window
/// deposit's DMA setup).
fn compare_mode(sizes: &[u64], reps: u32) {
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
        let (rows, hops) = measure_rows(sizes, reps, transport, None);
        print_table(&rows);
        print_hops(&hops);
        assert_exact(&rows);
        all.push((label, rows));
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

/// Hand-rolled JSON (the workspace's serde is an offline no-op stub).
fn render_json(rows: &[SizeRow], hops: &[HopStall], reps: u32, transport: Transport) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"bench\": \"latency-explain\",");
    let _ = writeln!(s, "  \"transport\": \"{}\",", transport.label());
    let _ = writeln!(s, "  \"kind\": \"pingpong\",");
    let _ = writeln!(s, "  \"reps\": {reps},");
    s.push_str("  \"sizes\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        // `dropped` stays in the format (older documents are diffed
        // against newer ones); a row only exists for a complete log.
        let _ = write!(
            s,
            "    {{\"size\": {}, \"messages\": {}, \"elapsed_ps\": {}, \"latency_ns\": {:.3}, \
             \"chains\": {}, \"residual_ps\": {}, \"dropped\": 0, \"turnaround_ps\": {}, \
             \"classes_ps\": {{",
            r.size,
            r.messages,
            r.elapsed.ps(),
            r.latency_ns(),
            r.chains,
            r.residual.ps(),
            r.turnaround.ps()
        );
        for (j, c) in CostClass::ALL.iter().enumerate() {
            let comma = if j + 1 == CostClass::ALL.len() {
                ""
            } else {
                ", "
            };
            let _ = write!(s, "\"{}\": {}{comma}", c.name(), r.classes.get(*c).ps());
        }
        let _ = writeln!(s, "}}}}{comma}");
    }
    s.push_str("  ],\n  \"hops\": [\n");
    for (i, h) in hops.iter().enumerate() {
        let comma = if i + 1 == hops.len() { "" } else { "," };
        let _ = writeln!(
            s,
            "    {{\"node\": {}, \"port\": {}, \"stall_ps\": {}, \"waits\": {}}}{comma}",
            h.node,
            h.port.map_or(-1, i64::from),
            h.stall.ps(),
            h.waits
        );
    }
    s.push_str("  ]\n}\n");
    s
}

// ------------------------------------------------------------------- diff

struct DiffRow {
    size: u64,
    base_ns: f64,
    cand_ns: f64,
    /// Per-class per-message deltas in ns (candidate - baseline).
    class_delta: Vec<(&'static str, f64)>,
}

fn load_rows(path: &str) -> Vec<(u64, u32, JsonValue)> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("failed to read {path}: {e}");
        std::process::exit(1);
    });
    let doc = parse_json(&text).unwrap_or_else(|e| {
        eprintln!("{path}: not valid latency_explain JSON: {e}");
        std::process::exit(1);
    });
    let sizes = doc
        .get("sizes")
        .and_then(|s| s.as_array().map(<[_]>::to_vec))
        .unwrap_or_else(|e| {
            eprintln!("{path}: missing sizes array: {e}");
            std::process::exit(1);
        });
    sizes
        .into_iter()
        .map(|row| {
            let size = row.get("size").and_then(JsonValue::as_u64).unwrap_or(0);
            let messages = row.get("messages").and_then(JsonValue::as_u64).unwrap_or(1) as u32;
            (size, messages.max(1), row)
        })
        .collect()
}

fn class_ns(row: &JsonValue, messages: u32, class: CostClass) -> f64 {
    row.get("classes_ps")
        .and_then(|c| c.get(class.name()))
        .and_then(JsonValue::as_f64)
        .unwrap_or(0.0)
        / 1e3
        / f64::from(messages)
}

fn diff_mode(baseline: &str, candidate: &str, tol_ns: f64) {
    let base = load_rows(baseline);
    let cand = load_rows(candidate);
    let mut diffs = Vec::new();
    for (size, bm, brow) in &base {
        let Some((_, cm, crow)) = cand.iter().find(|(s, _, _)| s == size) else {
            continue;
        };
        let base_ns = brow
            .get("latency_ns")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0);
        let cand_ns = crow
            .get("latency_ns")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0);
        let class_delta = CostClass::ALL
            .iter()
            .map(|&c| (c.name(), class_ns(crow, *cm, c) - class_ns(brow, *bm, c)))
            .collect();
        diffs.push(DiffRow {
            size: *size,
            base_ns,
            cand_ns,
            class_delta,
        });
    }
    if diffs.is_empty() {
        eprintln!("no common sizes between {baseline} and {candidate}");
        std::process::exit(1);
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
    for d in &diffs {
        let delta = d.cand_ns - d.base_ns;
        print!(
            "{:>7} {:>10.1} {:>10.1} {:>+9.1}",
            d.size, d.base_ns, d.cand_ns, delta
        );
        for (_, v) in &d.class_delta {
            print!(" {:>+10.1}", v);
        }
        println!();
        if delta > tol_ns {
            regressed = true;
        }
    }
    println!();
    if regressed {
        eprintln!("latency regression beyond {tol_ns} ns detected");
        std::process::exit(1);
    }
    println!("no regression beyond {tol_ns} ns");
}
