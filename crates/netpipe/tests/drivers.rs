//! Driver-level unit coverage for the NetPIPE harness: measurement
//! bookkeeping properties that the figure sweeps depend on.

use xt3_mpi::Personality;
use xt3_netpipe::mpi::MpiPattern;
use xt3_netpipe::runner::{run_curve, run_mpi, NetpipeConfig, TestKind, Transport};
use xt3_netpipe::{Schedule, SizePoint};

fn tiny(sizes: &[u64], reps: u32) -> NetpipeConfig {
    let mut c = NetpipeConfig::quick(64);
    c.schedule = Schedule {
        points: sizes.iter().map(|&size| SizePoint { size, reps }).collect(),
    };
    c
}

#[test]
fn every_round_of_the_schedule_is_measured() {
    let config = tiny(&[1, 16, 256, 4096], 3);
    for (t, k) in [
        (Transport::Put, TestKind::PingPong),
        (Transport::Put, TestKind::Stream),
        (Transport::Put, TestKind::Bidir),
        (Transport::Get, TestKind::PingPong),
        (Transport::Get, TestKind::Stream),
        (Transport::Get, TestKind::Bidir),
        (Transport::Mpich1, TestKind::PingPong),
        (Transport::Mpich1, TestKind::Stream),
        (Transport::Mpich1, TestKind::Bidir),
    ] {
        let rounds = run_curve(&config, t, k);
        assert_eq!(
            rounds.len(),
            4,
            "{} / {:?}: one measurement per schedule point",
            t.label(),
            k
        );
        for (r, want) in rounds.iter().zip([1u64, 16, 256, 4096]) {
            assert_eq!(r.size, want);
            assert!(r.elapsed > xt3_sim::SimTime::ZERO);
            assert!(r.messages > 0);
        }
    }
}

#[test]
fn pingpong_counts_two_messages_per_iteration() {
    let config = tiny(&[64], 5);
    let rounds = run_curve(&config, Transport::Put, TestKind::PingPong);
    assert_eq!(
        rounds[0].messages, 10,
        "5 round trips = 10 one-way messages"
    );
    assert_eq!(rounds[0].bw_factor, 1);
}

#[test]
fn gets_count_one_round_trip_each() {
    let config = tiny(&[64], 5);
    let rounds = run_curve(&config, Transport::Get, TestKind::PingPong);
    assert_eq!(rounds[0].messages, 5, "a get is its own round trip");
}

#[test]
fn bidir_reports_aggregate_bandwidth() {
    let config = tiny(&[64], 5);
    let rounds = run_curve(&config, Transport::Put, TestKind::Bidir);
    assert_eq!(rounds[0].bw_factor, 2);
}

#[test]
fn stream_measures_at_the_receiver_steady_state() {
    let config = tiny(&[256], 8);
    // The published curve is the responder's: reps-1 steady-state
    // intervals, not whatever the initiator recorded.
    let responder = run_curve(&config, Transport::Put, TestKind::Stream);
    assert_eq!(responder.len(), 1);
    assert_eq!(responder[0].messages, 7);
}

#[test]
fn mpi_sides_agree_on_round_count() {
    let config = tiny(&[64, 1024], 4);
    let (r0, r1) = run_mpi(&config, MpiPattern::PingPong, Personality::mpich2());
    assert_eq!(r0.len(), 2, "rank 0 measures ping-pong");
    assert!(r1.is_empty(), "rank 1 records nothing for ping-pong");
    let (s0, s1) = run_mpi(&config, MpiPattern::Stream, Personality::mpich2());
    assert!(s0.is_empty(), "sender records nothing for streams");
    assert_eq!(s1.len(), 2, "receiver measures streams");
}

#[test]
fn latencies_scale_sanely_between_transports() {
    // At tiny sizes, every MPI latency exceeds its Portals substrate and
    // streaming per-message time is below ping-pong one-way time.
    let config = tiny(&[1], 20);
    let pp = run_curve(&config, Transport::Put, TestKind::PingPong)[0].latency_us();
    let st = run_curve(&config, Transport::Put, TestKind::Stream)[0].latency_us();
    let mpi = run_curve(&config, Transport::Mpich1, TestKind::PingPong)[0].latency_us();
    assert!(st < pp, "pipelined stream {st} beats serial ping-pong {pp}");
    assert!(mpi > pp, "MPI {mpi} costs more than raw put {pp}");
}
