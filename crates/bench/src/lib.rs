#![warn(missing_docs)]
//! The evaluation harness: one executable, `xt3-bench`, whose
//! subcommands regenerate every figure and table of the paper's
//! evaluation (§6: `fig 4`…`fig 7`, `table …`), the ablations, the fault
//! campaign, the host-throughput BENCH files (`perf …`) and the
//! latency/congestion/telemetry explanations (`explain …`) — as the
//! paper's own numbers all came out of one tool, NetPIPE with a module
//! per transport.
//!
//! Three shared pieces exist exactly once: the argument reader and
//! command table ([`cli`]), the BENCH gates ([`gate`]) and the machines
//! more than one command builds ([`machines`]). Host wall-clock time
//! enters through [`stopwatch`] alone. `mem_footprint` is a second
//! executable on the same pieces: it installs [`heap`]'s counting
//! allocator — the crate's one `unsafe` site — which would otherwise sit
//! under every `perf` timing.

pub mod campaign;
pub mod cli;
mod cmd;
pub mod gate;
pub mod heap;
pub mod machines;
pub mod parallel;
pub mod stopwatch;

use xt3_netpipe::report::FigureData;
use xt3_netpipe::runner::{bandwidth_curve, latency_curve, NetpipeConfig, TestKind, Transport};

/// The four curves every figure in §6 plots, in the paper's legend order.
pub const CURVES: [Transport; 4] = [
    Transport::Get,
    Transport::Mpich2,
    Transport::Mpich1,
    Transport::Put,
];

/// Build Figure `n` of §6: 4 is latency (1 B – 1 KB, ping-pong), 5
/// uni-directional, 6 streaming and 7 bi-directional bandwidth.
///
/// The four transport curves run in parallel (each is an independent
/// deterministic simulation, so the index-merging runner keeps the
/// series order — and every point — bit-identical to a serial sweep
/// while the wall-clock drops to the slowest single curve).
///
/// # Panics
///
/// On an `n` outside 4–7.
pub fn figure(n: u8, config: &NetpipeConfig) -> FigureData {
    let (title, kind) = match n {
        4 => ("Figure 4. Latency performance", TestKind::PingPong),
        5 => (
            "Figure 5. Uni-directional bandwidth performance",
            TestKind::PingPong,
        ),
        6 => (
            "Figure 6. Streaming bandwidth performance",
            TestKind::Stream,
        ),
        7 => (
            "Figure 7. Bi-directional bandwidth performance",
            TestKind::Bidir,
        ),
        _ => panic!("the paper's evaluation has no Figure {n}"),
    };
    let curve = if n == 4 {
        latency_curve
    } else {
        bandwidth_curve
    };
    FigureData {
        title: title.into(),
        y_label: if n == 4 { "us" } else { "MB/s" }.into(),
        series: parallel::run_indexed(CURVES.to_vec(), |&t| curve(config, t, kind)),
    }
}

/// Write a figure's JSON next to the rendered output, under `results/`.
pub fn save_json(name: &str, fig: &FigureData) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new("results");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.json"));
    std::fs::write(&path, fig.to_json())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_quick_has_four_curves() {
        let config = NetpipeConfig::quick(64);
        let fig = figure(4, &config);
        assert_eq!(fig.series.len(), 4);
        let labels: Vec<&str> = fig.series.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, vec!["get", "mpich2", "mpich-1.2.6", "put"]);
        for s in &fig.series {
            assert!(!s.points.is_empty());
            assert!(s.points.iter().all(|p| p.y > 0.0));
        }
    }

    #[test]
    fn parallel_and_serial_agree() {
        // The parallel harness must not change results (independent
        // machines, deterministic seeds).
        let config = NetpipeConfig::quick(64);
        let fig = figure(4, &config);
        let serial = latency_curve(&config, Transport::Put, TestKind::PingPong);
        let par = fig.series.iter().find(|s| s.label == "put").unwrap();
        assert_eq!(serial.points.len(), par.points.len());
        for (a, b) in serial.points.iter().zip(&par.points) {
            assert_eq!(a.y.to_bits(), b.y.to_bits(), "bit-identical results");
        }
    }
}
