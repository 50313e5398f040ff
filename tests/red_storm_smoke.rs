//! Tier-1 Red Storm smoke test: the full-scale workload shape (one
//! NeighborPusher per node over a 3-D torus slice) at 8x8x8 = 512 nodes,
//! run on the parallel engine and checked against the serial digest.
//! Rounds and message size are reduced so this stays test-suite-fast;
//! `examples/red_storm_scale.rs` and `perf parallel` run the full-size
//! version.

use xt3_node::config::ExhaustionPolicy;
use xt3_node::par::run_parallel;
use xt3_node::workloads::red_storm_machine;
use xt3_sim::RunOutcome;
use xt3_topology::coord::Dims;

#[test]
fn red_storm_512_nodes_completes_and_matches_serial() {
    let dims = Dims::red_storm(8, 8, 8);
    let rounds = 1;
    let msg = 2 * 1024;

    let mut serial = red_storm_machine(dims, rounds, msg).into_engine();
    assert_eq!(serial.run(), RunOutcome::Drained);
    let (digest, fingerprint, dispatched, now) = (
        serial.digest(),
        serial.state_fingerprint(),
        serial.dispatched(),
        serial.now(),
    );
    let m = serial.into_model();
    assert_eq!(m.running_apps(), 0, "all 512 pushers must finish");
    assert!(!m.any_panicked());
    assert!(dispatched > 0);

    let run = run_parallel(red_storm_machine(dims, rounds, msg), 8);
    assert_eq!(run.outcome, RunOutcome::Drained);
    assert_eq!(run.digest, digest, "parallel digest diverged at 512 nodes");
    assert_eq!(run.state_fingerprint, fingerprint);
    assert_eq!(run.dispatched, dispatched);
    assert_eq!(run.now, now);
    assert_eq!(run.machine.running_apps(), 0);
}

#[test]
fn a_panic_policy_round_makes_no_go_back_n_state() {
    // Go-back-n and Get-reply state is made on a node's first use of it:
    // the Red Storm round, put-only under the paper's Panic policy, makes
    // it on no node.
    let machine = red_storm_machine(Dims::red_storm(4, 4, 2), 2, 1024);
    assert_eq!(machine.config.exhaustion, ExhaustionPolicy::Panic);
    let mut engine = machine.into_engine();
    assert_eq!(engine.run(), RunOutcome::Drained);
    let m = engine.into_model();
    assert_eq!(m.running_apps(), 0);
    for n in &m.nodes {
        assert!(!n.holds_peer_state(), "node {} made go-back-n state", n.id);
        assert_eq!(n.gbn_retransmissions(), 0);
    }
}
