//! One run of one workload: the untraced run that yields the end-to-end
//! metrics, and the traced run that yields the per-layer metrics, the span
//! file and the ledger.

use std::time::Instant;

use crate::catalog::{ratio, Metrics};
use crate::layers::LayerCounts;
use crate::probes::{self, Shape};
use crate::spans::{self, Tracer};
use crate::stats::median;
use crate::workloads::{
    alltoall_with, campaign_parallel_seconds, run_pass, split_merge_seconds, Heap, PassResult,
    Sinks, Workload, CAMPAIGN_SEEDS, SLICES,
};

/// Passes an untraced run makes at least, however long they take.
const MIN_PASSES: usize = 3;
/// An untraced run gives up after this many failed passes.
const MAX_FAILED_PASSES: usize = 16;
/// A traced run's untraced baseline: the fastest of up to this many passes,
/// as long as they fit in [`BASELINE_SECONDS`].
const BASELINE_PASSES: usize = 3;
/// See [`BASELINE_PASSES`].
const BASELINE_SECONDS: f64 = 1.0;
/// Untimed warm-up campaigns whose median is `fault_campaign`'s set-up.
const CAMPAIGN_WARMUPS: usize = 5;

/// What the command line asks of a run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`: how long the timed passes of an untraced run add up to.
    pub seconds: f64,
    /// `--trace 1`.
    pub trace: bool,
    /// `--quick`: one pass, smoke only.
    pub quick: bool,
}

/// One row of the per-layer ledger: what a faster layer could save.
#[derive(Debug, Clone)]
pub struct LedgerRow {
    /// The host probe.
    pub probe: &'static str,
    /// How often the pass called the probed function.
    pub count: u64,
    /// The probe's ns/op.
    pub ns_per_op: f64,
    /// `count x ns_per_op / pass wall`.
    pub share: f64,
    /// False for a probe whose cost another row already contains.
    pub counted: bool,
    /// Why the row is a guess, where the count or the probe's input could
    /// not be read from the traced pass.
    pub unverified: Option<&'static str>,
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone)]
pub struct WorkloadRun {
    /// Which workload.
    pub workload: Workload,
    /// Timed passes that succeeded.
    pub passes: usize,
    /// Passes (or campaign cells) attempted and failed.
    pub attempted: u64,
    /// See `attempted`.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Metrics,
    /// Simulated results of the run, exact: name, value.
    pub exact: Vec<(&'static str, f64)>,
    /// Reference digest: pass 0's, or the twin workload's.
    pub digest: u64,
    /// Timed region of every good pass of an untraced run, in order.
    pub walls_ms: Vec<f64>,
    /// Host seconds spent on the twin's reference pass.
    pub reference_s: f64,
    /// Why passes failed.
    pub errors: Vec<String>,
    /// What the probes' inputs were shaped with (traced run only).
    pub shape: Option<String>,
    /// The ledger (traced run only).
    pub ledger: Vec<LedgerRow>,
    /// The span file's contents (traced run only).
    pub spans_json: Option<String>,
}

impl WorkloadRun {
    /// Outputs were checked and every one was right.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.passes > 0
    }
}

/// Digest bookkeeping: what each pass must reproduce.
struct Expect {
    /// The twin's digest, or the first pass's.
    fixed: Option<u64>,
    /// Per campaign seed: the digest its first run produced.
    per_seed: Vec<Option<u64>>,
}

impl Expect {
    /// Check `pass` (index `i`) against what it must reproduce; marks the
    /// pass failed on a mismatch.
    fn check(&mut self, w: Workload, i: usize, pass: &mut PassResult) {
        if pass.error.is_some() {
            return;
        }
        let slot = match w {
            Workload::FaultCampaign => &mut self.per_seed[i % CAMPAIGN_SEEDS],
            _ => &mut self.fixed,
        };
        match *slot {
            None => *slot = Some(pass.digest),
            Some(want) if want != pass.digest => {
                pass.failed = pass.attempted;
                pass.error = Some(format!(
                    "digest {:#018x} differs from reference {want:#018x}",
                    pass.digest
                ));
            }
            Some(_) => {}
        }
    }
}

/// Run `w` as the command line asks.
pub fn run_workload(w: Workload, cfg: &RunConfig) -> WorkloadRun {
    let mut off = Tracer::new(false);
    let mut run = WorkloadRun {
        workload: w,
        passes: 0,
        attempted: 0,
        failed: 0,
        metrics: Metrics::default(),
        exact: Vec::new(),
        digest: 0,
        walls_ms: Vec::new(),
        reference_s: 0.0,
        errors: Vec::new(),
        shape: None,
        ledger: Vec::new(),
        spans_json: None,
    };
    let mut expect = Expect {
        fixed: None,
        per_seed: vec![None; CAMPAIGN_SEEDS],
    };

    // The serial / unobserved twin fixes the digest every pass must equal.
    let mut twin_pass = None;
    if let Some(twin) = w.twin() {
        let t = Instant::now();
        let pass = run_pass(twin, cfg.seed, 0, Heap::Uncounted, &mut off, 0);
        run.reference_s = t.elapsed().as_secs_f64();
        match &pass.error {
            None => expect.fixed = Some(pass.digest),
            Some(e) => run.errors.push(format!("{} reference: {e}", twin.name())),
        }
        twin_pass = Some(pass);
    }

    if cfg.trace {
        traced(w, cfg, &mut run, &mut expect, twin_pass.as_ref());
    } else {
        untraced(w, cfg, &mut run, &mut expect);
    }
    run.digest = expect.fixed.or(expect.per_seed[0]).unwrap_or(0);
    run
}

fn account(run: &mut WorkloadRun, index: usize, pass: &PassResult) {
    run.attempted += pass.attempted;
    run.failed += pass.failed;
    if let Some(e) = &pass.error {
        run.errors.push(format!("pass {index}: {e}"));
    }
}

fn exact_results(pass: &PassResult) -> Vec<(&'static str, f64)> {
    let mut exact = vec![("sim_elapsed_us", pass.sim_elapsed_ps as f64 / 1e6)];
    if let Some(figures) = &pass.netpipe {
        exact.push(("fig_error_pct", figures.fig_error_pct()));
    }
    exact
}

fn untraced(w: Workload, cfg: &RunConfig, run: &mut WorkloadRun, expect: &mut Expect) {
    let mut off = Tracer::new(false);

    // The first pass is not timed: it lets caches fill and first-touch
    // page faults happen, and it is the pass whose heap is counted.
    let mut warm = run_pass(w, cfg.seed, 0, Heap::Counted, &mut off, 0);
    expect.check(w, 0, &mut warm);
    account(run, 0, &warm);

    let mut setups = Vec::new();
    if w == Workload::FaultCampaign {
        // `run_all` builds its machines itself, so a campaign's set-up
        // cannot be split from its run: what the first timed campaign
        // waits for is the untimed warm-up, and that is what is reported.
        for _ in 0..CAMPAIGN_WARMUPS {
            let mut pass = run_pass(w, cfg.seed, 0, Heap::Uncounted, &mut off, 0);
            expect.check(w, 0, &mut pass);
            account(run, 0, &pass);
            if pass.error.is_none() {
                setups.push(pass.wall_s);
            }
        }
    }

    let min_passes = if cfg.quick { 1 } else { MIN_PASSES };
    let mut good: Vec<PassResult> = Vec::new();
    let mut timed = 0.0;
    let mut index = 0;
    while index < min_passes || (!cfg.quick && timed < cfg.seconds) {
        let started = Instant::now();
        let mut pass = run_pass(w, cfg.seed, index, Heap::Uncounted, &mut off, 0);
        expect.check(w, index, &mut pass);
        account(run, index, &pass);
        index += 1;
        if pass.error.is_none() {
            timed += pass.wall_s;
            good.push(pass);
        } else {
            // A failed pass has no trustworthy timed region; charge what
            // it took, and stop a run in which nothing works.
            timed += started.elapsed().as_secs_f64();
            if index - good.len() >= MAX_FAILED_PASSES {
                break;
            }
        }
    }

    run.passes = good.len();
    if w != Workload::FaultCampaign {
        setups = good.iter().map(|p| p.setup_s).collect();
    }
    let best_rate = good
        .iter()
        .map(|p| ratio(p.events as f64, p.wall_s))
        .fold(0.0, f64::max);
    run.metrics.set("events_per_s", best_rate);
    run.metrics.set("peak_heap_bytes", warm.peak_heap as f64);
    run.metrics.set("setup_s", median(&setups));
    if let Some(first) = good.first() {
        run.exact = exact_results(first);
    }
    run.walls_ms = good.iter().map(|p| p.wall_s * 1e3).collect();
}

fn traced(
    w: Workload,
    cfg: &RunConfig,
    run: &mut WorkloadRun,
    expect: &mut Expect,
    twin: Option<&PassResult>,
) {
    let mut off = Tracer::new(false);
    let mut tr = Tracer::new(true);

    // Untraced passes first. One with the heap counted, which is also the
    // warm-up; then the baseline the traced pass is compared with (the
    // fastest of up to three, so that box noise on a short workload does
    // not read as negative tracing overhead), whose event total also sizes
    // the traced pass's slices.
    let mut counted = run_pass(w, cfg.seed, 0, Heap::Counted, &mut off, 0);
    expect.check(w, 0, &mut counted);
    account(run, 0, &counted);
    let mut plain = run_pass(w, cfg.seed, 0, Heap::Uncounted, &mut off, 0);
    expect.check(w, 0, &mut plain);
    account(run, 0, &plain);
    let mut spent = plain.wall_s;
    for _ in 1..BASELINE_PASSES {
        if plain.error.is_some() || spent >= BASELINE_SECONDS {
            break;
        }
        let mut again = run_pass(w, cfg.seed, 0, Heap::Uncounted, &mut off, 0);
        expect.check(w, 0, &mut again);
        account(run, 0, &again);
        spent += again.wall_s;
        if again.error.is_none() && again.wall_s < plain.wall_s {
            plain = again;
        }
    }

    // The traced pass: same inputs (pass 0's seed for the campaign).
    let slice = (plain.events / SLICES).max(1);
    let traced_index = if w == Workload::FaultCampaign {
        CAMPAIGN_SEEDS
    } else {
        1
    };
    let mut traced = run_pass(w, cfg.seed, traced_index, Heap::Uncounted, &mut tr, slice);
    expect.check(w, traced_index, &mut traced);
    account(run, 1, &traced);
    run.passes = (run.attempted - run.failed) as usize / w.units_per_pass() as usize;

    let mut metrics = Metrics::default();
    let out = &mut metrics;
    let layers = &traced.layers;
    let traffic = w.traffic(cfg.seed);
    let hops = traffic.hops_per_pass.unwrap_or(layers.fabric_msgs);
    out.set("fail_ratio", ratio(run.failed as f64, run.attempted as f64));
    out.set("sim_elapsed_us", traced.sim_elapsed_ps as f64 / 1e6);
    layers.write_metrics(traffic.hops_known.then_some(hops), out);
    out.set("xt3.machine.build_ms", traced.setup_s * 1e3);
    out.set(
        "xt3.machine.build_bytes_per_node",
        ratio(counted.built_bytes as f64, counted.built_nodes as f64),
    );
    out.set(
        "xt3.machine.event_ns",
        ratio(plain.wall_s * 1e9, plain.events as f64),
    );
    out.set(
        "benchmark.trace_overhead_ratio",
        ratio(traced.wall_s, plain.wall_s),
    );
    out.set(
        "telemetry.congestion.attribute_ms",
        traced.attribute_s * 1e3,
    );
    out.set("telemetry.series.to_json_ms", traced.to_json_s * 1e3);
    if let Some(f) = &traced.netpipe {
        out.set("fig_error_pct", f.fig_error_pct());
        for (t, name) in [
            "netpipe.curve_ms.put",
            "netpipe.curve_ms.get",
            "netpipe.curve_ms.mpich1",
            "netpipe.curve_ms.mpich2",
            "netpipe.curve_ms.rma",
        ]
        .into_iter()
        .enumerate()
        {
            out.set(name, f.curve_wall_s[t] * 1e3);
        }
        out.set("mpi.events_per_msg.mpich1", f.events_per_msg_vs_put(2));
        out.set("mpi.events_per_msg.mpich2", f.events_per_msg_vs_put(3));
        out.set("mpi.events_per_msg.rma", f.events_per_msg_vs_put(4));
        out.set("netpipe.lat1b_us.put", f.lat1b_us[0]);
        out.set("netpipe.lat1b_us.get", f.lat1b_us[1]);
        out.set("netpipe.lat1b_us.mpich1", f.lat1b_us[2]);
        out.set("netpipe.lat1b_us.mpich2", f.lat1b_us[3]);
        out.set("netpipe.peak_mb_s.unidir", f.peak_unidir);
        out.set("netpipe.peak_mb_s.bidir", f.peak_bidir);
    }

    // What only one workload runs.
    match w {
        Workload::RedstormRoundPar => {
            let (split_s, merge_s) = split_merge_seconds();
            out.set("xt3.par.split_ms", split_s * 1e3);
            out.set("xt3.par.merge_ms", merge_s * 1e3);
            // Like against like: the faster of two serial passes (the
            // twin's was the process's first) over the faster par pass.
            let again = run_pass(
                Workload::RedstormRound,
                cfg.seed,
                0,
                Heap::Uncounted,
                &mut off,
                0,
            );
            let serial_s = twin.map_or(again.wall_s, |p| p.wall_s.min(again.wall_s));
            out.set("sim.par.speedup", ratio(serial_s, plain.wall_s));
        }
        Workload::Torus512Observed => {
            // One sink on at a time, over none, on the all-to-all machine.
            let only = |registry, causal, series| Sinks {
                registry,
                causal,
                series,
            };
            let wall = |sinks| alltoall_with(sinks, Heap::Uncounted).wall_s;
            let heap = |sinks| alltoall_with(sinks, Heap::Counted).peak_heap as f64;
            let none_s = wall(Sinks::NONE);
            out.set(
                "telemetry.registry.overhead_ratio",
                ratio(wall(only(true, false, false)), none_s),
            );
            out.set(
                "sim.causal.overhead_ratio",
                ratio(wall(only(false, true, false)), none_s),
            );
            out.set(
                "telemetry.series.overhead_ratio",
                ratio(wall(only(false, false, true)), none_s),
            );
            out.set(
                "telemetry.series.heap_ratio",
                ratio(heap(only(false, false, true)), heap(Sinks::NONE)),
            );
        }
        Workload::FaultCampaign => {
            out.set(
                "bench.campaign.cell_ms_p50",
                ratio(plain.wall_s * 1e3, plain.attempted as f64),
            );
            let parallel_s = campaign_parallel_seconds(cfg.seed).unwrap_or(0.0);
            out.set("bench.parallel.speedup", ratio(plain.wall_s, parallel_s));
        }
        _ => {}
    }

    let hops_known = traffic.hops_known;
    let shape = Shape {
        depth: layers.depth_p50(),
        transfer_bytes: layers.transfer_bytes(),
        traffic,
    };
    run.shape = Some(format!(
        "queue depth {} and {} B per transfer from the traced pass, {} (src, dst) pairs on {}x{}x{} nodes",
        shape.depth,
        shape.transfer_bytes,
        shape.traffic.pairs.len(),
        shape.traffic.dims.nx,
        shape.traffic.dims.ny,
        shape.traffic.dims.nz
    ));
    tr.set_pass(traced_index as u32 + 1);
    let hold_depth1 = probes::run_all(&mut tr, &shape, out);
    run.ledger = ledger(
        w,
        layers,
        hops,
        hops_known,
        hold_depth1,
        plain.wall_s * 1e9,
        out,
    );
    let attributed: f64 = run
        .ledger
        .iter()
        .filter(|r| r.counted)
        .map(|r| r.share)
        .sum();
    out.set("xt3.machine.unattributed_share", 1.0 - attributed);

    run.metrics = metrics;
    run.exact = exact_results(&traced);
    for (root, residual) in spans::residuals(tr.spans()) {
        if residual != 0 {
            run.failed += 1;
            run.errors.push(format!(
                "span {root}: self times leave a residual of {residual} ns"
            ));
        }
    }
    run.spans_json = Some(spans::to_json(w.name(), tr.spans()));
}

/// The ledger: with nothing contending, a faster layer saves at most
/// `count x ns/op / pass wall` of the pass. `hops_known` is false where
/// the pass's machines cannot be seen into (`fault_campaign`): `hops` is
/// then its host-path messages, one hop each, and the rows that rest on
/// that are marked unverified.
fn ledger(
    w: Workload,
    l: &LayerCounts,
    hops: u64,
    hops_known: bool,
    hold_depth1: f64,
    pass_wall_ns: f64,
    m: &Metrics,
) -> Vec<LedgerRow> {
    const GUESSED_MSGS: Option<&str> = Some("messages and hops not in the campaign's reports");
    const GUESSED_DEPTH: Option<&str> = Some("match-list depth not readable from outside");
    let observed = w.sinks().series;
    let full_rx = l.rx_headers.saturating_sub(l.rx_piggybacked);
    let gbn_msgs = if w == Workload::FaultCampaign {
        l.fabric_msgs
    } else {
        0
    };
    let merged = if l.par_windows > 0 { l.fabric_msgs } else { 0 };
    let fabric = if hops_known { None } else { GUESSED_MSGS };
    let (plain_hops, observed_hops) = if observed { (0, hops) } else { (hops, 0) };
    // (probe, count, counted, unverified); a probe whose cost another row
    // already contains is printed but left out of the sum.
    let rows: [(&'static str, u64, bool, Option<&'static str>); 17] = [
        ("sim.engine.loop_ns", l.events, true, None),
        ("sim.queue.push_pop_ns", l.events, true, None),
        ("sim.par.merge_runs_ns", merged, true, None),
        ("topology.route.next_port_ns", hops, false, fabric),
        ("topology.fabric.send_ns_per_hop", plain_hops, true, fabric),
        (
            "topology.fabric.send_observed_ns_per_hop",
            observed_hops,
            true,
            fabric,
        ),
        ("seastar.ppc.run_ns", l.ppc_runs, true, None),
        ("seastar.dma.occupy_ns", l.dma_transfers, true, None),
        ("firmware.tx_cmd_ns", l.tx_completions, true, None),
        ("firmware.rx_header_ns", l.rx_piggybacked, true, None),
        ("firmware.rx_complete_ns", full_rx, true, None),
        ("firmware.gbn.send_ack_ns", gbn_msgs, true, fabric),
        ("portals.match_ns", l.matched, true, GUESSED_DEPTH),
        ("portals.eq.post_get_ns", l.eq_posted, true, None),
        (
            "sim.causal.record_ns",
            l.causal_kept + l.causal_dropped,
            true,
            None,
        ),
        (
            "telemetry.registry.record_ns",
            l.spans_kept + l.spans_dropped,
            true,
            None,
        ),
        ("telemetry.series.record_hop_ns", l.series_hops, false, None),
    ];
    rows.into_iter()
        .map(|(probe, count, counted, unverified)| {
            let mut ns_per_op = m.get(probe);
            if probe == "sim.queue.push_pop_ns" {
                // The engine-loop probe already pays a depth-1 hold; the
                // queue's own share is what depth adds on top.
                ns_per_op = (ns_per_op - hold_depth1).max(0.0);
            }
            LedgerRow {
                probe,
                count,
                ns_per_op,
                share: ratio(count as f64 * ns_per_op, pass_wall_ns),
                counted,
                unverified: unverified.filter(|_| count > 0),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Rows whose count or probe input could not be read from the pass say
    /// so, and only where they have a count at all.
    #[test]
    fn ledger_marks_what_it_could_not_read() {
        let counts = LayerCounts {
            events: 1000,
            fabric_msgs: 10,
            matched: 10,
            ..LayerCounts::default()
        };
        let unverified = |w, hops_known| -> Vec<&'static str> {
            ledger(w, &counts, 10, hops_known, 0.0, 1e6, &Metrics::default())
                .into_iter()
                .filter(|r| r.unverified.is_some())
                .map(|r| r.probe)
                .collect()
        };
        assert_eq!(
            unverified(Workload::NetpipeSweep, true),
            ["portals.match_ns"]
        );
        assert_eq!(
            unverified(Workload::FaultCampaign, false),
            [
                "topology.route.next_port_ns",
                "topology.fabric.send_ns_per_hop",
                "firmware.gbn.send_ack_ns",
                "portals.match_ns"
            ]
        );
    }
}
