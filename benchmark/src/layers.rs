//! Exact per-layer counts read after a traced pass, through the public
//! accessors of each crate (node state, `TelemetryReport`, `Fabric`,
//! `FwCounters`, `LibCounters`, fault and go-back-n statistics).
//!
//! One [`LayerCounts`] accumulates over every machine of a pass. Counts
//! add; high-water marks take the maximum; shares are formed at the end
//! from summed numerators over summed `nodes x elapsed` denominators.

use crate::catalog::{ratio, Metrics};
use crate::stats::percentile;
use xt3_node::Machine;
use xt3_seastar::ppc::FwHandler;
use xt3_sim::SimTime;
use xt3_telemetry::TelemetryReport;

const HANDLERS: [FwHandler; 6] = [
    FwHandler::TxCommand,
    FwHandler::TxDmaSetup,
    FwHandler::RxHeader,
    FwHandler::RxCommand,
    FwHandler::Completion,
    FwHandler::Match,
];

/// What the layers did during one pass.
#[derive(Debug, Default, Clone)]
pub struct LayerCounts {
    /// Events dispatched.
    pub events: u64,
    /// `sum(nodes x elapsed)` in ps: the denominator of busy shares.
    pub node_time_ps: u128,
    /// `Fabric::messages_sent`.
    pub fabric_msgs: u64,
    /// Link busy and head-of-line stall time, busiest link, CRC retries.
    pub link_busy_ps: u128,
    pub link_stall_ps: u128,
    pub peak_link_util: f64,
    pub link_retries: u64,
    /// `seastar`: PPC busy time and handler runs; DMA busy time, transfers, bytes.
    pub ppc_busy_ps: u128,
    pub ppc_runs: u64,
    pub tx_dma_busy_ps: u128,
    pub rx_dma_busy_ps: u128,
    pub dma_transfers: u64,
    pub dma_bytes: u64,
    /// `FwCounters`, and the mailbox and RX-pool high-water marks.
    pub rx_headers: u64,
    pub rx_piggybacked: u64,
    pub tx_completions: u64,
    pub mailbox_high_water: u64,
    pub rx_pool_high_water: u64,
    /// `LibCounters`, and the deepest event queue.
    pub matched: u64,
    pub eq_posted: u64,
    pub eq_high_water: u64,
    /// Host CPU: busy time, interrupts, traps, host-path messages.
    pub host_busy_ps: u128,
    pub host_interrupts: u64,
    pub host_traps: u64,
    pub host_msgs: u64,
    /// Recovery: go-back-n retransmissions and injected faults.
    pub gbn_retransmissions: u64,
    pub faults_injected: u64,
    /// Sinks: records kept and dropped, hops the series saw.
    pub spans_kept: u64,
    pub spans_dropped: u64,
    pub causal_kept: u64,
    pub causal_dropped: u64,
    pub series_hops: u64,
    pub occ_dropped: u64,
    /// Synchronisation windows of a parallel run.
    pub par_windows: u64,
    /// Campaign cells run.
    pub campaign_cells: u64,
    /// `queue().len()` at every slice boundary.
    pub depths: Vec<u64>,
    /// `(events, host ns)` of every slice of the pass's first engine.
    pub first_engine_slices: Vec<(u64, u64)>,
}

impl LayerCounts {
    /// Add what a `TelemetryReport` carries (the campaign hands back
    /// reports, not machines).
    pub fn absorb_report(&mut self, r: &TelemetryReport) {
        self.node_time_ps += r.nodes.len() as u128 * u128::from(r.elapsed.ps());
        self.host_msgs += r.host_path_messages();
        for n in &r.nodes {
            self.ppc_busy_ps += u128::from(n.ppc_busy.ps());
            self.tx_dma_busy_ps += u128::from(n.tx_dma.busy.ps());
            self.rx_dma_busy_ps += u128::from(n.rx_dma.busy.ps());
            self.dma_transfers += n.tx_dma.transfers + n.rx_dma.transfers;
            self.dma_bytes += n.tx_dma.bytes + n.rx_dma.bytes;
            self.rx_headers += n.rx_headers;
            self.rx_piggybacked += n.rx_piggybacked;
            self.mailbox_high_water = self.mailbox_high_water.max(n.mailbox_cmd_high_water.into());
            self.rx_pool_high_water = self.rx_pool_high_water.max(n.rx_pool_high_water.into());
            self.eq_high_water = self.eq_high_water.max(n.eq_high_water.into());
            self.host_busy_ps += u128::from(n.host_busy.ps());
            self.host_interrupts += n.host_interrupts;
            self.host_traps += n.host_traps;
            for l in &n.links {
                self.link_busy_ps += u128::from(l.busy.ps());
                self.link_stall_ps += u128::from(l.stall.ps());
                self.link_retries += l.retries;
                self.peak_link_util = self.peak_link_util.max(l.utilization);
            }
        }
    }

    /// Add everything a finished machine exposes.
    pub fn absorb_machine(&mut self, m: &Machine, elapsed: SimTime) {
        self.absorb_report(&m.telemetry_report("benchmark", elapsed));
        self.fabric_msgs += m.fabric.messages_sent();
        self.gbn_retransmissions += m.total_gbn_retransmissions();
        self.faults_injected += m.fault_stats().total();
        for n in m.nodes.iter() {
            self.ppc_runs += HANDLERS.iter().map(|&h| n.chip.ppc.count(h)).sum::<u64>();
            self.tx_completions += n.fw.counters().tx_completions;
            for p in &n.procs {
                let c = p.lib.counters();
                self.matched += c.matched;
                self.eq_posted += c.events_posted;
            }
        }
        self.spans_kept += m.telemetry().spans().len() as u64;
        self.spans_dropped += m.telemetry().dropped_spans();
        self.causal_kept += m.causal().records().len() as u64;
        self.causal_dropped += m.causal().dropped();
        if let Some(series) = m.link_series() {
            for node in 0..series.node_slots() as u32 {
                let Some(lanes) = series.node(node) else {
                    continue;
                };
                for port in 0..6u8 {
                    self.series_hops += lanes.link(port).msgs();
                    self.occ_dropped += lanes.link(port).occ_dropped();
                }
            }
        }
    }

    /// Host events/s of the last eighth of the first engine's slices over
    /// the first eighth: below 1 when the run slows down as it goes.
    pub fn late_early_ratio(&self) -> f64 {
        let s = &self.first_engine_slices;
        let eighth = s.len() / 8;
        if eighth == 0 {
            return 0.0;
        }
        let rate = |part: &[(u64, u64)]| {
            let (ev, ns) = part
                .iter()
                .fold((0u64, 0u64), |(e, n), &(de, dn)| (e + de, n + dn));
            ratio(ev as f64, ns as f64)
        };
        ratio(rate(&s[s.len() - eighth..]), rate(&s[..eighth]))
    }

    /// Median event-queue depth over the slice boundaries (at least 1, so
    /// probes always have something to hold).
    pub fn depth_p50(&self) -> u64 {
        percentile(&self.depths, 50.0).max(1)
    }

    /// Mean bytes of one DMA transfer of the pass: the message size the
    /// probes are shaped with (at least 1, so they always move something).
    pub fn transfer_bytes(&self) -> u64 {
        (self.dma_bytes / self.dma_transfers.max(1)).max(1)
    }

    /// Write the simulated per-layer metrics. `hops` is the fabric hop
    /// total of the pass, `None` where it cannot be known (see
    /// `Workload::traffic`).
    pub fn write_metrics(&self, hops: Option<u64>, out: &mut Metrics) {
        let node_time = self.node_time_ps as f64;
        let msgs = self.fabric_msgs as f64;
        out.set("sim.queue.depth_p50", percentile(&self.depths, 50.0) as f64);
        out.set(
            "sim.queue.depth_max",
            percentile(&self.depths, 100.0) as f64,
        );
        out.set("sim.engine.events", self.events as f64);
        out.set("sim.par.windows", self.par_windows as f64);
        out.set(
            "sim.par.events_per_window",
            ratio(self.events as f64, self.par_windows as f64),
        );
        out.set(
            "sim.causal.kept_ratio",
            ratio(
                self.causal_kept as f64,
                (self.causal_kept + self.causal_dropped) as f64,
            ),
        );
        out.set("sim.faults.injected", self.faults_injected as f64);
        out.set("topology.fabric.msgs", msgs);
        out.set(
            "topology.fabric.hops_per_msg",
            hops.map_or(0.0, |h| ratio(h as f64, msgs)),
        );
        out.set(
            "topology.fabric.hol_stall_share",
            ratio(
                self.link_stall_ps as f64,
                (self.link_busy_ps + self.link_stall_ps) as f64,
            ),
        );
        out.set("topology.fabric.peak_link_util", self.peak_link_util);
        out.set("topology.link.retries", self.link_retries as f64);
        out.set(
            "seastar.ppc.busy_share",
            ratio(self.ppc_busy_ps as f64, node_time),
        );
        out.set(
            "seastar.dma.tx_busy_share",
            ratio(self.tx_dma_busy_ps as f64, node_time),
        );
        out.set(
            "seastar.dma.rx_busy_share",
            ratio(self.rx_dma_busy_ps as f64, node_time),
        );
        out.set("seastar.dma.transfers", self.dma_transfers as f64);
        out.set("firmware.rx_headers", self.rx_headers as f64);
        out.set(
            "firmware.piggyback_ratio",
            ratio(self.rx_piggybacked as f64, self.rx_headers as f64),
        );
        out.set(
            "firmware.mailbox_high_water",
            self.mailbox_high_water as f64,
        );
        out.set(
            "firmware.rx_pool_high_water",
            self.rx_pool_high_water as f64,
        );
        out.set(
            "firmware.gbn.retransmissions",
            self.gbn_retransmissions as f64,
        );
        out.set(
            "firmware.gbn.retransmit_ratio",
            ratio(self.gbn_retransmissions as f64, msgs),
        );
        out.set("portals.eq_high_water", self.eq_high_water as f64);
        let host_msgs = self.host_msgs as f64;
        out.set(
            "xt3.host.interrupts_per_msg",
            ratio(self.host_interrupts as f64, host_msgs),
        );
        out.set(
            "xt3.host.traps_per_msg",
            ratio(self.host_traps as f64, host_msgs),
        );
        out.set(
            "xt3.host.busy_share",
            ratio(self.host_busy_ps as f64, node_time),
        );
        out.set(
            "telemetry.registry.span_kept_ratio",
            ratio(
                self.spans_kept as f64,
                (self.spans_kept + self.spans_dropped) as f64,
            ),
        );
        out.set("telemetry.series.occ_dropped", self.occ_dropped as f64);
        out.set("bench.campaign.cells", self.campaign_cells as f64);
        out.set("xt3.machine.late_early_ratio", self.late_early_ratio());
    }
}
