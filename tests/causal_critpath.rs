//! Tier-1 causal critical-path contract tests.
//!
//! 1. **Digest neutrality**: enabling the causal tracer changes nothing —
//!    an instrumented engine matches a bare one step for step (the full
//!    18-scenario sweep lives in `determinism_audit.rs`; this is the
//!    focused single-scenario version).
//! 2. **Exact partition** (property): for arbitrary sizes/reps/transports,
//!    every chain's cost classes sum exactly to its span, there is exactly
//!    one critical path per timed message, and the chains tile the
//!    measured round time with zero residual.
//! 3. **Piggyback fence**: a 12 B put (header piggyback) shows *no* rx-DMA
//!    class and one interrupt per message; a 13 B put pays the rx-DMA
//!    deposit and exactly one extra interrupt — every other class is
//!    bit-identical between the two sizes.

use audit::replay::lockstep;
use proptest::prelude::*;
use std::collections::BTreeSet;
use xt3_netpipe::runner::{
    build_engine, critical_chains, run_explained, ExplainedRun, NetpipeConfig, TestKind, Transport,
};
use xt3_netpipe::Schedule;
use xt3_sim::{CausalLog, RunOutcome, SimTime};
use xt3_telemetry::{
    attribute, extract_chains, hop_stalls, parse_json, Breakdown, Chain, CostClass, CritPathError,
    JsonValue,
};

fn fixed_config(size: u64, reps: u32) -> NetpipeConfig {
    NetpipeConfig {
        schedule: Schedule::fixed(size, reps),
        ..NetpipeConfig::paper()
    }
}

/// A short ping-pong, explained: far under the causal log's cap.
fn explained(size: u64, reps: u32, transport: Transport) -> ExplainedRun {
    run_explained(&fixed_config(size, reps), transport, TestKind::PingPong)
        .expect("the log holds the run whole")
}

fn class_totals(chains: &[&Chain]) -> Breakdown {
    let mut total = Breakdown::new();
    for c in chains {
        total.merge(&c.breakdown);
    }
    total
}

#[test]
fn causal_tracer_is_digest_neutral() {
    let config = NetpipeConfig::quick(4096);
    let bare = build_engine(&config, Transport::Put, TestKind::PingPong);
    let mut traced = build_engine(&config, Transport::Put, TestKind::PingPong);
    traced.model_mut().set_causal_enabled(true);
    let run = lockstep(bare, traced, "causal-neutrality").expect("no divergence");
    assert!(run.dispatched > 0);
}

#[test]
fn piggyback_fence_differs_only_in_dma_and_interrupt() {
    let reps = 4;
    let small = explained(12, reps, Transport::Put);
    let large = explained(13, reps, Transport::Put);
    let b12 = class_totals(&critical_chains(&small.chains, &small.rounds[0], None));
    let b13 = class_totals(&critical_chains(&large.chains, &large.rounds[0], None));

    // 12 B rides the header piggyback: no rx-DMA deposit at all.
    assert_eq!(b12.get(CostClass::Dma), SimTime::ZERO);
    // 13 B pays the deposit and exactly one extra interrupt per message.
    assert!(b13.get(CostClass::Dma) > SimTime::ZERO);
    assert_eq!(
        b13.get(CostClass::Interrupt),
        b12.get(CostClass::Interrupt).times(2)
    );
    // Everything else is identical to the picosecond.
    for class in [
        CostClass::Trap,
        CostClass::FwTx,
        CostClass::Wire,
        CostClass::HopQueue,
        CostClass::FwRx,
        CostClass::HostCompletion,
    ] {
        assert_eq!(
            b12.get(class),
            b13.get(class),
            "class {class} must not move"
        );
    }
}

#[test]
fn interrupt_class_is_at_least_two_microseconds_per_message() {
    let run = explained(64, 3, Transport::Put);
    let chains = critical_chains(&run.chains, &run.rounds[0], None);
    assert!(!chains.is_empty());
    for c in &chains {
        assert!(
            c.breakdown.get(CostClass::Interrupt) >= SimTime::from_us(2),
            "paper §6: interrupt service dominates at >= 2 us, got {} for message {:#x}",
            c.breakdown.get(CostClass::Interrupt),
            c.id.0
        );
    }
}

/// The personality transports (one-sided RMA, both two-sided MPI
/// flavors) consume several events per message and run library code
/// between a delivery and the reply, so their attribution tiles by
/// resumption: one chain per timed message plus an explicit turnaround
/// term, summing to the measured round exactly.
#[test]
fn personality_tiling_is_exact() {
    use xt3_netpipe::runner::tiled_chains;
    for (transport, data_only) in [
        (Transport::Rma, true),
        (Transport::Mpich1, false),
        (Transport::Mpich2, false),
    ] {
        let run = explained(64, 4, transport);
        let round = run.rounds[0];
        let tiled = tiled_chains(&run.chains, &round, None, data_only)
            .unwrap_or_else(|| panic!("{}: no per-message tiling", transport.label()));
        assert_eq!(tiled.chains.len() as u32, round.messages);
        let mut sum = tiled.turnaround;
        for c in &tiled.chains {
            sum += c.span();
        }
        assert_eq!(
            sum,
            round.elapsed,
            "{}: tiling must be exact",
            transport.label()
        );
        assert!(
            tiled.turnaround > SimTime::ZERO,
            "{}: a personality pays library turnaround between delivery and reply",
            transport.label()
        );
    }
}

/// The flow-arrow events of a Perfetto document, and its `metadata`.
fn flows_and_metadata(doc: &str) -> (usize, Option<JsonValue>) {
    let v = parse_json(doc).expect("perfetto JSON parses");
    let events = v.get("traceEvents").unwrap().as_array().unwrap().to_vec();
    let flows = events
        .iter()
        .filter(|e| matches!(e.get("ph").unwrap().as_str(), Ok("s" | "t" | "f")))
        .count();
    (flows, v.get("metadata").ok().cloned())
}

#[test]
fn a_truncated_causal_log_is_refused_by_name() {
    // The same two-node ping-pong, once into the default log and once into
    // one that fills after 64 records.
    let run = |cap: Option<usize>| {
        let mut engine = build_engine(&fixed_config(64, 8), Transport::Put, TestKind::PingPong);
        engine.model_mut().config.telemetry = true;
        *engine.model_mut().causal_mut() = cap.map_or_else(CausalLog::enabled, CausalLog::with_cap);
        assert_eq!(engine.run(), RunOutcome::Drained);
        engine.into_model()
    };

    let whole = run(None);
    let log = whole.causal();
    let chains = extract_chains(log).expect("complete log");
    assert!(!chains.is_empty());
    assert!(attribute(&chains, log, None, 8, 4).is_ok());
    assert!(hop_stalls(&chains, log).is_ok());
    let (flows, metadata) = flows_and_metadata(&whole.telemetry().perfetto_json_with_causal(log));
    assert!(flows > 0);
    assert!(metadata.is_none());

    let cut = run(Some(64));
    let log = cut.causal();
    let refused = CritPathError::Truncated {
        kept: 64,
        dropped: whole.causal().records().len() as u64 - 64,
    };
    assert_eq!(extract_chains(log), Err(refused));
    // Chains from elsewhere do not make the log attributable either.
    assert_eq!(attribute(&chains, log, None, 8, 4), Err(refused));
    assert_eq!(hop_stalls(&chains, log), Err(refused));
    assert!(refused.to_string().contains("64 records kept"));
    // The export still draws the 64 checkpoints, draws no arrows over
    // chains it cannot know to be whole, and says why.
    let (flows, metadata) = flows_and_metadata(&cut.telemetry().perfetto_json_with_causal(log));
    assert_eq!(flows, 0);
    let named = metadata.expect("truncation is named");
    let named = named.get("causal_log_truncated").unwrap();
    assert_eq!(named.get("records_kept").unwrap().as_u64(), Ok(64));
    assert_eq!(
        named.get("records_dropped").unwrap().as_u64(),
        Ok(log.dropped())
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn critical_paths_partition_measured_latency(
        size in 1u64..1501u64,
        reps in 2u32..6u32,
        use_get in any::<bool>(),
    ) {
        let transport = if use_get { Transport::Get } else { Transport::Put };
        let run = explained(size, reps, transport);
        prop_assert_eq!(run.rounds.len(), 1);
        let round = run.rounds[0];

        // Every extracted chain partitions its own span exactly; class
        // durations are non-negative by type (SimTime is unsigned) and
        // extraction errors out on any non-monotone parent edge.
        for c in &run.chains {
            prop_assert_eq!(c.breakdown.total(), c.span());
        }

        // Exactly one critical path per timed message, each a distinct
        // message id.
        let filter = use_get.then_some(0);
        let critical = critical_chains(&run.chains, &round, filter);
        prop_assert_eq!(critical.len() as u32, round.messages);
        let ids: BTreeSet<u64> = critical.iter().map(|c| c.id.0).collect();
        prop_assert_eq!(ids.len(), critical.len());

        // The chains tile the measured window: their spans sum to the
        // round's elapsed time with zero residual.
        let mut sum = SimTime::ZERO;
        for c in &critical {
            sum += c.span();
        }
        prop_assert_eq!(sum, round.elapsed);
    }
}
