//! Reporting: the hardware-counter harvest behind `telemetry_report`,
//! and the causal log's EQ-post attribution (which completion produced
//! the event an app is about to consume).

use super::Machine;
use xt3_sim::{CausalStage, SimTime, TraceId};
use xt3_telemetry::{Component, DmaSummary, LinkSummary, NodeReport, SinkKept, TelemetryReport};
use xt3_topology::coord::Port;

/// High bit marking a message's *sender-side* completion chain (the
/// `SendEnd` delivery). Kept distinct from the message's own trace id so
/// those records never splice into the receive-path spine; `fresh_tag`
/// packs the node id from bit 40 up and never reaches bit 63.
const SEND_CHAIN_BIT: u64 = 1 << 63;

impl Machine {
    /// Harvest the cross-layer telemetry summary: per-node host/PPC/DMA
    /// busy time, the cause-split interrupt counters behind the §6
    /// interrupts-per-message metric, mailbox and SRAM-pool high-water
    /// marks, Portals EQ depth peaks, and per-hop link accounting. A pure
    /// read of hardware-model counters — available whether or not the
    /// span-recording sink was enabled — beside how much of the run the
    /// two capped sinks kept.
    pub fn telemetry_report(&self, label: &str, elapsed: SimTime) -> TelemetryReport {
        let mut nodes = Vec::with_capacity(self.nodes.len());
        for n in &self.nodes {
            let fwc = n.fw.counters();
            let mailbox_cmd_high_water = (0..n.fw.process_count())
                .map(|p| n.fw.mailbox(p).map_or(0, |m| m.cmd_high_water()))
                .max()
                .unwrap_or(0);
            let rx_pool_high_water = (0..n.fw.process_count())
                .map(|p| n.fw.rx_pool_stats(p).1)
                .max()
                .unwrap_or(0);
            let eq_high_water = n
                .procs
                .iter()
                .map(|p| p.lib.max_eq_high_water())
                .max()
                .unwrap_or(0);
            let mut links = Vec::new();
            for port in Port::NETWORK_PORTS {
                let l = self.fabric.link(n.id, port);
                if l.packets_carried() == 0 {
                    continue;
                }
                let idx = port.index() as u8;
                links.push(LinkSummary {
                    port: idx,
                    name: Component::Link(idx).track_name(),
                    packets: l.packets_carried(),
                    retries: l.retries(),
                    busy: l.busy_total(),
                    stall: l.stall_total(),
                    utilization: l.utilization(elapsed),
                });
            }
            nodes.push(NodeReport {
                node: n.id.0,
                host_busy: n.host.busy_total(),
                host_interrupts: n.host.counters.interrupts,
                host_traps: n.host.counters.traps,
                ppc_busy: n.chip.ppc.busy_total(),
                tx_dma: DmaSummary {
                    transfers: n.chip.tx_dma.transfers(),
                    bytes: n.chip.tx_dma.bytes(),
                    busy: n.chip.tx_dma.busy_total(),
                },
                rx_dma: DmaSummary {
                    transfers: n.chip.rx_dma.transfers(),
                    bytes: n.chip.rx_dma.bytes(),
                    busy: n.chip.rx_dma.busy_total(),
                },
                rx_headers: fwc.rx_headers,
                rx_piggybacked: fwc.rx_piggybacked,
                rx_header_interrupts: fwc.rx_header_interrupts,
                rx_complete_interrupts: fwc.rx_complete_interrupts,
                tx_interrupts: fwc.tx_interrupts,
                rx_bad_process_drops: u64::from(n.bad_process_drops),
                mailbox_cmd_high_water,
                rx_pool_high_water,
                rx_pool_capacity: n.fw.config().rx_pendings,
                eq_high_water,
                links,
            });
        }
        TelemetryReport {
            label: label.to_string(),
            elapsed,
            nodes,
            spans: SinkKept {
                kept: self.telemetry.spans().len() as u64,
                dropped: self.telemetry.dropped_spans(),
            },
            causal_records: SinkKept {
                kept: self.causal.made(),
                dropped: self.causal.dropped(),
            },
        }
    }

    // ----- causal EQ-delivery attribution -----

    /// `(node, pid)`'s monotone posted-event counter, as far as the causal
    /// log cares (0 while it is off). Snapshot it before a library
    /// completion call and hand the value to [`Self::causal_eq_post`].
    pub(super) fn events_posted(&self, node: usize, pid: u32) -> u64 {
        if !self.causal.is_enabled() {
            return 0;
        }
        self.nodes[node].procs[pid as usize]
            .lib
            .counters()
            .events_posted
    }

    /// Record the `EqPost` checkpoint for a completion that may have
    /// posted events to `(node, pid)`'s queue: diffs the library's
    /// posted-event counter across the completion and maps every new
    /// event to this producer record, so a later successful `eq_get` can
    /// name the message whose completion it consumed. The completion is
    /// the message's last stage, so the log is told it is finished: a
    /// caller still holding one of its record indices makes it the
    /// cause first.
    pub(super) fn causal_eq_post(
        &mut self,
        node: usize,
        pid: u32,
        id: TraceId,
        at: SimTime,
        before: u64,
    ) -> Option<u32> {
        let posted = self.events_posted(node, pid).saturating_sub(before);
        let idx = (posted > 0)
            .then(|| {
                let info = u64::from(pid);
                self.causal
                    .record_chain(id, CausalStage::EqPost, at, node as u32, info)
            })
            .flatten();
        if let Some(idx) = idx {
            self.causal.push_eq_posts(node as u32, pid, idx, posted);
        }
        // The message's last stage: what it posted now holds its chain.
        self.causal.finish(id);
        idx
    }

    /// Like [`Self::causal_eq_post`] but for sender-side `SendEnd`
    /// completions: recorded as a *root* under the message's send-chain
    /// id ([`SEND_CHAIN_BIT`]), so the receive-path spine — which shares
    /// the tag and may still be growing on the remote node — keeps its
    /// own latest-record chain.
    pub(super) fn causal_eq_post_send(
        &mut self,
        node: usize,
        pid: u32,
        tag: u64,
        at: SimTime,
        before: u64,
    ) {
        let posted = self.events_posted(node, pid).saturating_sub(before);
        if posted == 0 {
            return;
        }
        let id = TraceId(tag | SEND_CHAIN_BIT);
        let pid_info = u64::from(pid);
        if let Some(idx) =
            self.causal
                .record(id, CausalStage::EqPost, at, node as u32, None, pid_info)
        {
            self.causal.push_eq_posts(node as u32, pid, idx, posted);
        }
        self.causal.finish(id);
    }
}
