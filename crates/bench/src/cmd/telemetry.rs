//! `explain telemetry`: the paper-facing telemetry summary. Runs the
//! NetPIPE put ping-pong on both sides of the 12-byte header-piggyback
//! threshold with the cross-layer telemetry sink enabled, and prints
//! interrupts/message, host µs/message and per-hop link utilization for
//! each.
//!
//! `--out <dir>` additionally writes the machine-readable reports and the
//! Perfetto traces (load in ui.perfetto.dev) for both runs.

use xt3_netpipe::runner::{run_instrumented, InstrumentedRun, NetpipeConfig, TestKind, Transport};
use xt3_netpipe::Schedule;

use crate::cli::{write_file, Args, CmdResult};

const SMALL: u64 = 8; // rides the header piggyback
const LARGE: u64 = 4096; // needs the completion interrupt
const REPS: u32 = 50;

fn run_at(size: u64) -> InstrumentedRun {
    let config = NetpipeConfig {
        schedule: Schedule::fixed(size, REPS),
        ..NetpipeConfig::paper()
    };
    run_instrumented(&config, Transport::Put, TestKind::PingPong)
}

/// Print both runs' tables; write reports and traces under `--out`.
pub fn run(mut args: Args) -> CmdResult {
    let out_dir = args.value("--out")?;
    args.finish()?;

    let small = run_at(SMALL);
    let large = run_at(LARGE);

    println!("Cross-layer telemetry: put ping-pong, {REPS} reps per size\n");
    for (label, run) in [("small", &small), ("large", &large)] {
        println!("--- {label} ---");
        print!("{}", run.report.render_table());
        println!(
            "peak link utilization: {:.2}%\n",
            run.report.peak_link_utilization() * 100.0
        );
    }

    println!(
        "{:>8} {:>14} {:>14} {:>16} {:>12}",
        "bytes", "ints/piggyback", "ints/full msg", "host us/message", "latency us"
    );
    for (size, run) in [(SMALL, &small), (LARGE, &large)] {
        let lat = run
            .rounds
            .first()
            .map(|r| r.latency_us())
            .unwrap_or(f64::NAN);
        println!(
            "{size:>8} {:>14.3} {:>14.3} {:>16.3} {lat:>12.3}",
            run.report.rx_interrupts_per_piggybacked_message(),
            run.report.rx_interrupts_per_full_message(),
            run.report.host_us_per_message()
        );
    }
    println!(
        "\n<=12 B payloads ride the header packet and complete with exactly one\n\
         receive interrupt; larger messages pay the header interrupt plus the\n\
         RX-DMA completion interrupt (paper \u{00a7}3.3/\u{00a7}6)."
    );

    if let Some(dir) = out_dir {
        let dir = std::path::PathBuf::from(dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        for (label, run) in [("small", &small), ("large", &large)] {
            let report = dir.join(format!("telemetry_report_{label}.json"));
            let trace = dir.join(format!("trace_{label}.perfetto.json"));
            write_file(&report, run.report.to_json())?;
            write_file(&trace, &run.perfetto)?;
            println!("wrote {} and {}", report.display(), trace.display());
        }
    }
    Ok(())
}
