//! `summary`: every paper anchor vs. the simulated value — the artifact
//! EXPERIMENTS.md references. `trace-put`: the causal records of one put
//! ping-pong, the tool used to verify that file's calibration
//! decomposition.

use xt3_netpipe::reference as r;
use xt3_netpipe::runner::{
    bandwidth_curve, build_machine, finish, latency_curve, NetpipeConfig, TestKind, Transport,
};
use xt3_netpipe::Schedule;
use xt3_sim::SimTime;

use crate::cli::{Args, CmdResult};

/// One-shot reproduction report with pass/deviation marks.
pub fn summary(args: Args) -> CmdResult {
    args.finish()?;
    println!("Reproduction summary: 'Implementation and Performance of Portals 3.3 on the Cray XT3' (CLUSTER 2005)\n");

    let mut lat_cfg = NetpipeConfig::paper_latency();
    lat_cfg.schedule = Schedule::standard(64, 0);
    let lat = |t| latency_curve(&lat_cfg, t, TestKind::PingPong).points[0].y;

    let bw_cfg = NetpipeConfig::paper();
    let uni = bandwidth_curve(&bw_cfg, Transport::Put, TestKind::PingPong);
    let uni_peak = uni.y_max();
    let uni_half = uni.x_where_y_reaches(uni_peak / 2.0).unwrap_or(f64::NAN);
    let stream = bandwidth_curve(&bw_cfg, Transport::Put, TestKind::Stream);
    let stream_half = stream
        .x_where_y_reaches(stream.y_max() / 2.0)
        .unwrap_or(f64::NAN);
    let bidir_peak = bandwidth_curve(&bw_cfg, Transport::Put, TestKind::Bidir).y_max();

    println!(
        "{:<34} {:>12} {:>12} {:>8}  status",
        "anchor", "paper", "measured", "err %"
    );
    let mut all_ok = true;
    let mut row = |name: &str, paper: f64, measured: f64, unit: &str, tolerance_pct: f64| {
        let err = (measured - paper) / paper * 100.0;
        let ok = err.abs() <= tolerance_pct;
        all_ok &= ok;
        println!(
            "{name:<34} {paper:>9.2} {unit:<2} {measured:>9.2} {unit:<2} {err:>8.2}  {}",
            if ok { "ok" } else { "DEVIATION (documented)" }
        );
    };
    for (name, paper, transport) in [
        ("Fig4 put 1B latency", r::latency_1b::PUT_US, Transport::Put),
        ("Fig4 get 1B latency", r::latency_1b::GET_US, Transport::Get),
        (
            "Fig4 mpich-1.2.6 1B latency",
            r::latency_1b::MPICH1_US,
            Transport::Mpich1,
        ),
        (
            "Fig4 mpich2 1B latency",
            r::latency_1b::MPICH2_US,
            Transport::Mpich2,
        ),
    ] {
        row(name, paper, lat(transport), "us", 2.0);
    }
    for (name, paper, measured, unit, tolerance_pct) in [
        (
            "Fig5 uni-dir put peak",
            r::unidir::PUT_PEAK_MB,
            uni_peak,
            "MB/s",
            1.0,
        ),
        (
            "Fig5 put half-bandwidth point",
            r::unidir::HALF_BW_BYTES,
            uni_half,
            "B",
            15.0,
        ),
        (
            "Fig6 stream half-bandwidth point",
            r::streaming::HALF_BW_BYTES,
            stream_half,
            "B",
            10.0,
        ),
        (
            "Fig7 bi-dir put peak",
            r::bidir::PUT_PEAK_MB,
            bidir_peak,
            "MB/s",
            1.0,
        ),
    ] {
        row(name, paper, measured, unit, tolerance_pct);
    }

    let ordered = [
        Transport::Put,
        Transport::Get,
        Transport::Mpich1,
        Transport::Mpich2,
    ]
    .map(lat);
    println!(
        "\nOrdering checks: put < get < mpich-1.2.6 < mpich2 at 1 B: {}",
        if ordered.windows(2).all(|w| w[0] < w[1]) {
            "ok"
        } else {
            "VIOLATED"
        }
    );
    println!(
        "bidir/uni ratio: {:.4} (paper 1.987)",
        bidir_peak / uni_peak
    );
    println!(
        "\n{}",
        if all_ok {
            "All anchors within tolerance."
        } else {
            "Deviations above are analyzed in EXPERIMENTS.md (streaming half-bandwidth)."
        }
    );
    Ok(())
}

/// Latency breakdown: the causal log's records of a single put
/// ping-pong, by time, so every nanosecond of the one-way path shows
/// between two steps of one message.
pub fn trace_put(mut args: Args) -> CmdResult {
    // Zero is a size: the header-only put.
    let size = args.positional("bytes", |t| t.parse::<u64>().ok())?;
    let size = size.unwrap_or(1);
    args.finish()?;

    let config = NetpipeConfig {
        schedule: Schedule::fixed(size, 1),
        ..NetpipeConfig::paper()
    };
    let (t, k) = (Transport::Put, TestKind::PingPong);
    let mut m = build_machine(&config, t, k);
    m.set_causal_enabled(true);
    let (m, _, _) = finish(m, t, k);
    let mut records: Vec<_> = m.causal().records().iter().collect();
    records.sort_by_key(|r| r.at);

    println!(
        "Causal records of one {size}-byte put ping-pong, by time: the responder's \
         zero-byte READY, then the ping and the pong:\n"
    );
    let mut prev: Option<SimTime> = None;
    for r in &records {
        let delta = prev.map_or(SimTime::ZERO, |p| r.at.saturating_sub(p));
        println!(
            "{:>14}  (+{:>10})  n{} {:<12} msg {:#x}",
            r.at.to_string(),
            delta.to_string(),
            r.node,
            r.stage.name(),
            r.id.0
        );
        prev = Some(r.at);
    }
    println!("\n(total records: {})", records.len());
    Ok(())
}
