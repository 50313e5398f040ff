//! `perf rma`: RMA vs two-sided latency/bandwidth curves.
//!
//! Sweeps the five one-sided NetPIPE patterns (put/get/accumulate
//! ping-pong, put stream, bidirectional put) next to the eager and
//! rendezvous two-sided baselines, and writes the per-size latency and
//! bandwidth numbers to `BENCH_rma.json`. Everything here is *simulated*
//! time, so the numbers are bit-reproducible across hosts: `--check`
//! against the committed artifact is a model-regression guard, not a
//! wall-clock one — it trips when a change to the Portals/SeaStar model
//! or the RMA sync path moves a curve by more than 2x
//! ([`gate::check_rma`]), and when the headline ordering (1-byte
//! one-sided put beats the rendezvous two-sided path) stops holding.

use xt3_mpi::Personality;
use xt3_netpipe::mpi::MpiPattern;
use xt3_netpipe::rma::RmaPattern;
use xt3_netpipe::runner::{run_mpi, run_rma, NetpipeConfig};
use xt3_netpipe::RoundResult;
use xt3_telemetry::JsonWriter;

use crate::cli::{positive, write_file, Args, CmdResult};
use crate::gate::{self, Baseline};

/// The arguments, and what each flag means.
pub const USAGE: &str = "\
[--quick] [--max-size BYTES] [--out PATH] [--check PATH]

--quick           small messages (CI smoke configuration)
--max-size BYTES  NetPIPE schedule size cap (default 65536)
--out PATH        JSON output path (default BENCH_rma.json)
--check PATH      hold every point shared with a committed BENCH_rma.json
                  to gate::check_rma's ceiling, and the 1-byte one-sided
                  put to beating the rendezvous two-sided path";

/// One curve: a named sweep of sizes.
type Curve = (&'static str, Vec<RoundResult>);

/// Latency of `curve` at `size`.
fn latency_at(curves: &[Curve], curve: &str, size: u64) -> Option<f64> {
    let (_, rounds) = curves.iter().find(|(name, _)| *name == curve)?;
    let round = rounds.iter().find(|r| r.size == size)?;
    Some(round.latency_us())
}

/// Measure, write `--out`, apply `--check`.
pub fn run(mut args: Args) -> CmdResult {
    let quick = args.flag("--quick");
    let max_size = args.parsed("--max-size", positive::<u64>)?;
    let mut max_size = max_size.unwrap_or(64 * 1024);
    let out = args.value("--out")?;
    let out = out.unwrap_or_else(|| "BENCH_rma.json".into());
    let check = args.value("--check")?;
    args.finish()?;
    if quick {
        max_size = max_size.min(4096);
    }

    let config = NetpipeConfig::quick(max_size);
    println!("perf rma: one-sided vs two-sided, max message {max_size} B");
    println!();

    let mpi = |pattern, personality| run_mpi(&config, pattern, personality);
    let curves: Vec<Curve> = vec![
        ("rma-put", run_rma(&config, RmaPattern::PingPongPut).0),
        ("rma-get", run_rma(&config, RmaPattern::PingPongGet).0),
        ("rma-acc", run_rma(&config, RmaPattern::PingPongAcc).0),
        ("rma-stream", run_rma(&config, RmaPattern::Stream).1),
        ("rma-bidir", run_rma(&config, RmaPattern::Bidir).0),
        (
            "mpich1-pingpong",
            mpi(MpiPattern::PingPong, Personality::mpich1()).0,
        ),
        (
            "mpich2-pingpong",
            mpi(MpiPattern::PingPong, Personality::mpich2()).0,
        ),
        (
            "mpich1-stream",
            mpi(MpiPattern::Stream, Personality::mpich1()).1,
        ),
        (
            "mpich2-stream",
            mpi(MpiPattern::Stream, Personality::mpich2()).1,
        ),
    ];

    println!(
        "{:<18} {:>8} {:>12} {:>12}",
        "curve", "points", "lat@min us", "bw@max MB/s"
    );
    for (name, rounds) in &curves {
        println!(
            "{:<18} {:>8} {:>12.3} {:>12.1}",
            name,
            rounds.len(),
            rounds.first().map_or(0.0, |r| r.latency_us()),
            rounds.last().map_or(0.0, |r| r.bandwidth_mb())
        );
    }
    println!();

    // Where the one-sided put curve crosses each two-sided baseline —
    // the table EXPERIMENTS.md quotes.
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>10}",
        "bytes", "rma-put us", "eager us", "rndv us", "winner"
    );
    for p in &curves[0].1 {
        let at = |curve| latency_at(&curves, curve, p.size);
        let (Some(e), Some(r)) = (at("mpich1-pingpong"), at("mpich2-pingpong")) else {
            continue;
        };
        let winner = if p.latency_us() <= e.min(r) {
            "rma"
        } else if e <= r {
            "eager"
        } else {
            "rndv"
        };
        println!(
            "{:>10} {:>12.3} {:>12.3} {:>12.3} {:>10}",
            p.size,
            p.latency_us(),
            e,
            r,
            winner
        );
    }
    println!();

    let mut w = JsonWriter::new();
    w.object(true)
        .field_str("bench", "rma-vs-two-sided")
        .field("quick", quick)
        .field("max_size", max_size)
        .key("curves")
        .array(true);
    for (name, rounds) in &curves {
        w.object(false).field_str("name", name);
        w.key("points").array(true);
        for r in rounds {
            w.object(false)
                .field("size", r.size)
                .field("latency_us", format_args!("{:.4}", r.latency_us()))
                .field("bandwidth_mb", format_args!("{:.4}", r.bandwidth_mb()))
                .end();
        }
        w.end().end();
    }
    w.end().end();
    write_file(&out, w.finish())?;
    println!("wrote {out}");

    if let Some(path) = check {
        let points: Vec<(&str, u64, f64)> = curves
            .iter()
            .flat_map(|(name, rounds)| rounds.iter().map(|r| (*name, r.size, r.latency_us())))
            .collect();
        gate::check_rma(&Baseline::load(&path)?, &points)?;
        // Headline ordering: a 1-byte one-sided put must still beat the
        // rendezvous two-sided path (it skips the handshake entirely).
        let first = |curve: &str| curves.iter().find(|c| c.0 == curve)?.1.first().copied();
        if let (Some(put), Some(rndv)) = (first("rma-put"), first("mpich2-pingpong")) {
            let (put, rndv) = (put.latency_us(), rndv.latency_us());
            if put >= rndv {
                return Err(format!(
                    "1-byte rma-put ({put:.3} us) no longer beats rendezvous ({rndv:.3} us)"
                )
                .into());
            }
        }
        println!("regression check passed");
    }
    Ok(())
}
