//! The causal log's fold against the whole log it replaces.
//!
//! A log folds each chain into running totals as its delivery is
//! recorded, and frees the records past its head that nothing can reach
//! any more. Over every replay-audit scenario, the five traffic patterns
//! on 4×4×2 and the NetPIPE put, get and MPICH ping-pongs, those totals —
//! chains, per-class time, per-link head-of-line stall — must equal what
//! `extract_chains`, `aggregate` and `hop_stalls` make of the same run
//! kept whole; with the head forced to 0, so that every record is folded
//! and freed, they must still, and what the log holds after the run must
//! be the handful of records still in flight when it ended, not the
//! run's.

use audit::replay;
use xt3_netpipe::runner::{build_machine, NetpipeConfig, TestKind, Transport};
use xt3_netpipe::Schedule;
use xt3_node::workloads::{traffic_machine, TrafficPattern};
use xt3_node::Machine;
use xt3_sim::{CausalLog, ChainFold};
use xt3_telemetry::{aggregate, extract_chains, hop_stalls};
use xt3_topology::coord::Dims;

/// Every machine in scope, by name.
fn machines() -> Vec<(String, Machine)> {
    let mut out: Vec<(String, Machine)> = replay::all_scenarios()
        .iter()
        .map(|s| (s.name.to_string(), s.build_machine()))
        .collect();
    for pattern in TrafficPattern::ALL {
        let m = traffic_machine(pattern, Dims::mesh(4, 4, 2), 2, 4096);
        out.push((format!("{}-4x4x2", pattern.name()), m));
    }
    for transport in [
        Transport::Put,
        Transport::Get,
        Transport::Mpich1,
        Transport::Mpich2,
    ] {
        let config = NetpipeConfig {
            schedule: Schedule::fixed(4096, 16),
            ..NetpipeConfig::paper_latency()
        };
        let m = build_machine(&config, transport, TestKind::PingPong);
        out.push((format!("pingpong-{transport:?}"), m));
    }
    out
}

/// Run `m` into `log`; the log afterwards.
fn run(mut m: Machine, log: CausalLog) -> CausalLog {
    *m.causal_mut() = log;
    let mut engine = m.into_engine();
    engine.run();
    std::mem::take(engine.into_model().causal_mut())
}

/// The fold must equal the whole log's extraction: the same totals, or
/// the same first defect.
fn assert_fold_is_whole(name: &str, fold: &ChainFold, whole: &CausalLog) {
    let chains = match extract_chains(whole) {
        Ok(chains) => chains,
        Err(e) => return assert_eq!(fold.error(), Some(e), "{name}"),
    };
    assert_eq!(fold.error(), None, "{name}");
    assert_eq!(fold.chains(), chains.len() as u64, "{name}: chains");
    assert_eq!(fold.breakdown(), aggregate(&chains), "{name}: classes");
    let hops = hop_stalls(&chains, whole).unwrap_or_else(|e| panic!("{name}: {e}"));
    let folded: Vec<_> = fold.hop_stalls().collect();
    assert_eq!(folded, hops, "{name}: per-link stall");
}

#[test]
fn the_fold_equals_the_whole_log_and_frees_what_completes() {
    let mut saw_stall = false;
    for (name, m) in machines() {
        let whole = run(m, CausalLog::with_cap(usize::MAX));
        assert_eq!(whole.dropped(), 0, "{name}");
        assert_eq!(whole.made(), whole.records().len() as u64, "{name}");
        let fold = whole.fold();
        assert_fold_is_whole(&name, fold, &whole);
        saw_stall |= fold.hop_stalls().next().is_some();

        // Folded from the first record: the same totals, the same stream.
        let (_, m) = machines()
            .into_iter()
            .find(|(n, _)| *n == name)
            .expect("rebuilt");
        let lean = run(m, CausalLog::with_head(0));
        assert_eq!(lean.digest(), whole.digest(), "{name}: same records made");
        assert_eq!((lean.made(), lean.dropped()), (whole.made(), 0), "{name}");
        assert!(lean.records().is_empty(), "{name}: no head");
        assert_eq!(lean.fold(), whole.fold(), "{name}: fold");
        // What is left is what was in flight at the end: bounded by a
        // few messages' chains, whatever the run's length.
        assert!(
            lean.held() <= 64,
            "{name}: {} of {} records still held",
            lean.held(),
            lean.made()
        );
    }
    assert!(saw_stall, "some run must queue at a hop");
}

/// The contended 8×8×8 all-to-all (the benchmark's `torus512_observed`
/// stage): a default log folds 5.5 M records while holding one carry per
/// message in flight, and its totals equal those of the same run kept
/// whole. About 10 s and 400 MB in release; run with `--ignored`.
#[test]
#[ignore]
fn the_fold_equals_the_whole_log_at_512_nodes() {
    let build = || traffic_machine(TrafficPattern::AllToAll, Dims::red_storm(8, 8, 8), 1, 4096);
    let whole = run(build(), CausalLog::with_cap(usize::MAX));
    assert_eq!(whole.dropped(), 0);
    assert_fold_is_whole("alltoall-8x8x8", whole.fold(), &whole);
    let folded = run(build(), CausalLog::enabled());
    assert_eq!(folded.digest(), whole.digest());
    assert_eq!(folded.fold(), whole.fold());
    assert!(folded.made() > u64::from(xt3_sim::HEAD));
}
