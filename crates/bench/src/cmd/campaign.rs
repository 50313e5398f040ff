//! `campaign`: the fault-injection campaign runner.
//!
//! Sweeps every NetPIPE transport × pattern scenario across a set of
//! wire fault rates (each cell run twice from the same seed to prove
//! digest-identical replay), then runs the real-payload integrity and
//! firmware-fault isolation checks. Any violated recovery invariant
//! panics, so a non-zero exit is a failed campaign.
//!
//! The sweep fans its (scenario, rate) cells across worker threads by
//! default; `--serial` forces the single-threaded path. Both produce
//! bit-identical reports (each cell derives its own seed from its matrix
//! position), so the flag only matters for timing comparisons and for
//! debugging with a deterministic execution *order*.

use crate::campaign::{run_all, CampaignConfig};
use crate::cli::{csv, Args, CmdResult};
use crate::stopwatch;

/// The arguments, and what each flag means.
pub const USAGE: &str = "\
[--seed N] [--rates a,b,c] [--quick] [--serial]

--seed N       base seed (decimal or 0x hex; default 0xFA17CA4A)
--rates a,b,c  wire fault rates to sweep, each in [0, 1) (default 0.01,0.04,0.08)
--quick        smaller message sizes (CI smoke configuration)
--serial       run the sweep single-threaded (same reports, slower)";

fn seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn rate(text: &str) -> Option<f64> {
    text.parse().ok().filter(|r| (0.0..1.0).contains(r))
}

/// Run the campaign and print one row per cell.
pub fn run(mut args: Args) -> CmdResult {
    let seed = args.parsed("--seed", seed)?.unwrap_or(0xFA17_CA4A);
    let rates = args.parsed("--rates", |list| csv(list, rate))?;
    let quick = args.flag("--quick");
    let serial = args.flag("--serial");
    args.finish()?;

    let mut config = if quick {
        CampaignConfig::quick(seed)
    } else {
        CampaignConfig::new(seed)
    };
    if let Some(r) = rates {
        config.rates = r;
    }

    println!(
        "fault campaign: seed {:#x}, rates {:?}, max message {} B, {} sweep",
        config.seed,
        config.rates,
        config.max_size,
        if serial { "serial" } else { "parallel" }
    );
    println!();

    let ((sweep, rma, traffic, integrity, isolation), seconds) =
        stopwatch::time(|| run_all(&config, serial));

    println!(
        "{:<28} {:>6} {:>9} {:>7} {:>7} {:>6} {:>18}",
        "scenario", "rate", "events", "faults", "retx", "sram", "digest"
    );
    for r in sweep.iter().chain(&rma).chain(&traffic) {
        println!(
            "{:<28} {:>6.3} {:>9} {:>7} {:>7} {:>6} {:#018x}",
            r.name,
            r.rate,
            r.dispatched,
            r.stats.wire_total(),
            r.retransmissions,
            r.stats.sram_rejections,
            r.digest
        );
    }
    println!();
    println!(
        "rma: {} workload cells (accumulate exactly-once + halo byte integrity held)",
        rma.len()
    );
    println!(
        "traffic: {} congested cells (incast + all-to-all payload bytes and \
         provenance sums exact through recovery)",
        traffic.len()
    );
    println!(
        "integrity: {} messages byte-exact ({} wire faults, {} sram rejections, \
         {} interrupt spikes, {} retransmissions)",
        integrity.delivered,
        integrity.stats.wire_total(),
        integrity.stats.sram_rejections,
        integrity.stats.interrupt_spikes,
        integrity.retransmissions
    );
    println!(
        "isolation: node(s) {:?} dark, {} puts still delivered by survivors",
        isolation.dark, isolation.delivered
    );

    let cells = sweep.len() + rma.len() + traffic.len();
    let injected: u64 = sweep
        .iter()
        .chain(&rma)
        .chain(&traffic)
        .map(|r| r.stats.total())
        .sum();
    println!();
    println!(
        "campaign green: {cells} scenario cells, {injected} injected faults, \
         every invariant held, every cell replayed digest-identical ({seconds:.1}s)"
    );
    Ok(())
}
