//! Calibration and curve-shape tests: the simulated platform must
//! reproduce the paper's §6 results — headline numbers within tolerance,
//! orderings and crossovers preserved.

use xt3_netpipe::reference as r;
use xt3_netpipe::runner::{
    bandwidth_curve, latency_curve, run_curve, NetpipeConfig, TestKind, Transport,
};
use xt3_netpipe::Schedule;
use xt3_sim::Series;

/// The curve's y at a size its schedule measured.
fn y_at(s: &Series, x: f64) -> Option<f64> {
    s.points.iter().find(|p| p.x == x).map(|p| p.y)
}

fn small_config() -> NetpipeConfig {
    let mut c = NetpipeConfig::paper_latency();
    c.schedule = Schedule::standard(64, 0);
    c
}

fn latency_at_1b(transport: Transport) -> f64 {
    let s = latency_curve(&small_config(), transport, TestKind::PingPong);
    s.points.first().expect("1-byte point").y
}

#[test]
fn headline_latencies_match_paper_within_2_percent() {
    let checks = [
        (Transport::Put, r::latency_1b::PUT_US),
        (Transport::Get, r::latency_1b::GET_US),
        (Transport::Mpich1, r::latency_1b::MPICH1_US),
        (Transport::Mpich2, r::latency_1b::MPICH2_US),
    ];
    for (t, want) in checks {
        let got = latency_at_1b(t);
        let err = (got - want).abs() / want;
        assert!(
            err < 0.02,
            "{}: got {got:.3} us, paper {want:.3} us ({:.1}% off)",
            t.label(),
            err * 100.0
        );
    }
}

#[test]
fn latency_ordering_matches_paper() {
    // §6: put < get < mpich-1.2.6 < mpich2 at one byte.
    let put = latency_at_1b(Transport::Put);
    let get = latency_at_1b(Transport::Get);
    let m1 = latency_at_1b(Transport::Mpich1);
    let m2 = latency_at_1b(Transport::Mpich2);
    assert!(put < get, "put {put} < get {get}");
    assert!(get < m1, "get {get} < mpich1 {m1}");
    assert!(m1 < m2, "mpich1 {m1} < mpich2 {m2}");
}

#[test]
fn piggyback_kink_at_12_bytes() {
    // §6: "At 12 bytes we see the results of a small message
    // optimization" — 12 bytes ride in the header packet and save an
    // interrupt; 13 bytes need the second interrupt.
    let mut c = NetpipeConfig::paper_latency();
    c.schedule = Schedule {
        points: [1u64, 8, 12, 13, 16]
            .into_iter()
            .map(|size| xt3_netpipe::SizePoint { size, reps: 20 })
            .collect(),
    };
    let s = latency_curve(&c, Transport::Put, TestKind::PingPong);
    let at = |x: f64| y_at(&s, x).expect("point");
    assert!(
        (at(12.0) - at(1.0)).abs() < 0.3,
        "within the piggyback window latency is flat: {} vs {}",
        at(12.0),
        at(1.0)
    );
    let jump = at(13.0) - at(12.0);
    assert!(
        jump > 1.5,
        "crossing the piggyback limit must cost roughly an extra interrupt; jump {jump:.2} us"
    );
}

#[test]
fn unidir_bandwidth_matches_paper() {
    let config = NetpipeConfig::paper();
    let s = bandwidth_curve(&config, Transport::Put, TestKind::PingPong);
    let peak = s.y_max();
    let err = (peak - r::unidir::PUT_PEAK_MB).abs() / r::unidir::PUT_PEAK_MB;
    assert!(
        err < 0.01,
        "uni peak {peak:.2} vs paper {:.2}",
        r::unidir::PUT_PEAK_MB
    );

    // Peak is reached at the top of the sweep (8 MB).
    let last = s.points.last().unwrap();
    assert!(last.y > 0.99 * peak, "bandwidth still near peak at 8 MB");

    // Half-bandwidth "at around 7 KB".
    let half = s.x_where_y_reaches(peak / 2.0).expect("crosses half");
    assert!(
        (5_000.0..9_500.0).contains(&half),
        "uni half-bandwidth at {half:.0} B (paper: around 7 KB)"
    );
}

#[test]
fn bidir_bandwidth_matches_paper() {
    let config = NetpipeConfig::paper();
    let s = bandwidth_curve(&config, Transport::Put, TestKind::Bidir);
    let peak = s.y_max();
    let err = (peak - r::bidir::PUT_PEAK_MB).abs() / r::bidir::PUT_PEAK_MB;
    assert!(
        err < 0.01,
        "bidir peak {peak:.2} vs paper {:.2}",
        r::bidir::PUT_PEAK_MB
    );
}

#[test]
fn bidir_sustains_nearly_double_unidir() {
    // §6: "the SeaStar is able to sustain its unidirectional bandwidth
    // performance when sending as well as receiving."
    let config = NetpipeConfig::paper();
    let uni = bandwidth_curve(&config, Transport::Put, TestKind::PingPong).y_max();
    let bi = bandwidth_curve(&config, Transport::Put, TestKind::Bidir).y_max();
    let ratio = bi / uni;
    assert!(
        (1.95..2.0).contains(&ratio),
        "bidir/uni ratio {ratio:.4} (paper: 2203.19/1108.76 = 1.987)"
    );
}

#[test]
fn bidirectional_gets_also_double() {
    // Both sides pulling simultaneously saturate both directions of the
    // pipe, like the put curve in Fig. 7.
    let mut config = NetpipeConfig::paper();
    config.schedule = Schedule::standard(8 << 20, 0);
    let bi_get = bandwidth_curve(&config, Transport::Get, TestKind::Bidir).y_max();
    let uni_get = bandwidth_curve(&config, Transport::Get, TestKind::PingPong).y_max();
    let ratio = bi_get / uni_get;
    assert!((1.9..2.05).contains(&ratio), "bidir get ratio {ratio:.3}");
}

#[test]
fn streaming_is_steeper_than_pingpong() {
    // §6: "the graph is steeper for this curve than the ping-pong
    // bandwidth results" — streaming reaches half bandwidth at a smaller
    // message size.
    let config = NetpipeConfig::paper();
    let pp = bandwidth_curve(&config, Transport::Put, TestKind::PingPong);
    let st = bandwidth_curve(&config, Transport::Put, TestKind::Stream);
    let pp_half = pp.x_where_y_reaches(pp.y_max() / 2.0).unwrap();
    let st_half = st.x_where_y_reaches(st.y_max() / 2.0).unwrap();
    assert!(
        st_half < pp_half,
        "stream half-bw {st_half:.0} B must come before ping-pong {pp_half:.0} B"
    );
}

#[test]
fn streaming_hurts_get_much_more_than_put() {
    // §6: "the streaming test has a much greater impact on the
    // performance of the get operation, which is a blocking operation
    // ... that cannot be pipelined."
    let mut config = NetpipeConfig::paper();
    config.schedule = Schedule::standard(64 << 10, 0);
    let put = bandwidth_curve(&config, Transport::Put, TestKind::Stream);
    let get = bandwidth_curve(&config, Transport::Get, TestKind::Stream);
    // In the pipelined regime (small-to-mid sizes) the put stream is far
    // ahead of the serial gets; the gap narrows as wire time dominates.
    let p = y_at(&put, 4096.0).unwrap();
    let g = y_at(&get, 4096.0).unwrap();
    assert!(
        p > 1.5 * g,
        "put stream {p:.0} MB/s should dwarf blocking get stream {g:.0} MB/s at 4 KB"
    );
    let p16 = y_at(&put, 16_384.0).unwrap();
    let g16 = y_at(&get, 16_384.0).unwrap();
    assert!(
        p16 > 1.2 * g16,
        "gap persists at 16 KB: {p16:.0} vs {g16:.0}"
    );
}

#[test]
fn mpi_bandwidth_only_slightly_less_than_put() {
    // §6: "The MPI bandwidth is only slightly less, with both MPI
    // implementations achieving the same performance."
    let mut config = NetpipeConfig::paper();
    // Trim the sweep for test runtime; the asymptote is what matters.
    config.schedule = Schedule::standard(8 << 20, 0);
    let put = bandwidth_curve(&config, Transport::Put, TestKind::PingPong);
    let m1 = bandwidth_curve(&config, Transport::Mpich1, TestKind::PingPong);
    let m2 = bandwidth_curve(&config, Transport::Mpich2, TestKind::PingPong);
    let (p, a, b) = (put.y_max(), m1.y_max(), m2.y_max());
    assert!(a < p && b < p, "MPI peaks below raw put");
    assert!(a > 0.95 * p, "mpich1 peak {a:.0} within 5% of put {p:.0}");
    assert!(b > 0.95 * p, "mpich2 peak {b:.0} within 5% of put {p:.0}");
    assert!(
        (a - b).abs() / a < 0.02,
        "both MPI implementations achieve the same bandwidth: {a:.0} vs {b:.0}"
    );
}

#[test]
fn get_bandwidth_tracks_put_at_scale() {
    // Fig. 5 plots get alongside put; both asymptote to the same pipe.
    let mut config = NetpipeConfig::paper();
    config.schedule = Schedule::standard(8 << 20, 0);
    let put = bandwidth_curve(&config, Transport::Put, TestKind::PingPong).y_max();
    let get = bandwidth_curve(&config, Transport::Get, TestKind::PingPong).y_max();
    assert!(
        (get - put).abs() / put < 0.05,
        "get peak {get:.0} tracks put peak {put:.0}"
    );
}

#[test]
fn accelerated_mode_eliminates_interrupt_latency() {
    // §3.3/§6: offloading matching eliminates both interrupts from the
    // data path; the projected latency improvement should be on the order
    // of the interrupt cost.
    let mut generic = small_config();
    let mut accel = small_config();
    generic.accelerated = false;
    accel.accelerated = true;
    let g = latency_curve(&generic, Transport::Put, TestKind::PingPong).points[0].y;
    let a = latency_curve(&accel, Transport::Put, TestKind::PingPong).points[0].y;
    assert!(a < g - 1.5, "accelerated {a:.2} us ≪ generic {g:.2} us");
}

#[test]
fn interrupt_cost_ablation_moves_latency() {
    use xt3_seastar::cost::CostModel;
    use xt3_sim::SimTime;
    let mut cheap = small_config();
    cheap.machine.cost = CostModel::paper().with_interrupt_cost(SimTime::from_ns(500));
    let mut dear = small_config();
    dear.machine.cost = CostModel::paper().with_interrupt_cost(SimTime::from_ns(4000));
    let c = latency_curve(&cheap, Transport::Put, TestKind::PingPong).points[0].y;
    let d = latency_curve(&dear, Transport::Put, TestKind::PingPong).points[0].y;
    // One interrupt on the piggyback path: the delta should be near the
    // 3.5 us cost difference.
    let delta = d - c;
    assert!(
        (2.5..4.5).contains(&delta),
        "interrupt sweep delta {delta:.2} us for 3.5 us of cost change"
    );
}

#[test]
fn results_are_deterministic() {
    let config = small_config();
    let a = run_curve(&config, Transport::Put, TestKind::PingPong);
    let b = run_curve(&config, Transport::Put, TestKind::PingPong);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.elapsed, y.elapsed, "same seed, same trace");
    }
}

#[test]
fn latency_and_bandwidth_figures_are_consistent() {
    // Figures 4 and 5 come from the same ping-pong runs: bandwidth must
    // equal size/latency at every shared size.
    let mut config = NetpipeConfig::paper_latency();
    config.schedule = Schedule::standard(1 << 10, 0);
    let rounds = run_curve(&config, Transport::Put, TestKind::PingPong);
    for r in &rounds {
        let implied_bw = r.size as f64 / r.latency_us(); // bytes/us = MB/s
        let reported = r.bandwidth_mb();
        // latency() truncates to whole picoseconds per message, so the two
        // agree to rounding, not bit-exactly.
        assert!(
            (implied_bw - reported).abs() / reported < 1e-4,
            "size {}: {implied_bw} vs {reported}",
            r.size
        );
    }
}
