//! The embedded PowerPC 440 execution model.
//!
//! Paper §2: a dual-issue 500 MHz PowerPC 440 with 32 KB I/D caches runs
//! the firmware in "a tight loop that checks for work on the network
//! interface and then checks for work from the host" (§3.3). The firmware
//! is single threaded: "handlers execute until they return, at which point
//! a new event can be processed" (§4.3).
//!
//! We model the processor as one busy cursor: each firmware handler
//! occupies the PPC for its cost-model duration, and concurrent work
//! (e.g. a transmit command arriving while a receive header is being
//! processed) queues behind it. This serialization is the mechanism by
//! which firmware processing shows up in the bidirectional results.

use crate::cost::CostModel;
use serde::{Deserialize, Serialize};
use xt3_sim::{BusyCursor, SimTime};
use xt3_telemetry::{Component, TelemetrySink};

/// Firmware handler classes, each with a cost-model duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FwHandler {
    /// Transmit command dispatch from a mailbox.
    TxCommand,
    /// TX DMA programming for the head-of-list pending.
    TxDmaSetup,
    /// New-message header processing.
    RxHeader,
    /// Receive-deposit command dispatch.
    RxCommand,
    /// DMA completion and event post.
    Completion,
    /// Offloaded Portals matching (accelerated mode).
    Match,
}

impl FwHandler {
    /// The handler's execution cost under `cm`.
    pub fn cost(self, cm: &CostModel) -> SimTime {
        match self {
            FwHandler::TxCommand => cm.fw_tx_cmd,
            FwHandler::TxDmaSetup => cm.fw_tx_dma_setup,
            FwHandler::RxHeader => cm.fw_rx_hdr,
            FwHandler::RxCommand => cm.fw_rx_cmd,
            FwHandler::Completion => cm.fw_completion,
            FwHandler::Match => cm.fw_match,
        }
    }

    /// Timeline label for the handler's occupancy spans.
    pub fn label(self) -> &'static str {
        match self {
            FwHandler::TxCommand => "fw-tx-cmd",
            FwHandler::TxDmaSetup => "fw-tx-dma-setup",
            FwHandler::RxHeader => "fw-rx-hdr",
            FwHandler::RxCommand => "fw-rx-cmd",
            FwHandler::Completion => "fw-completion",
            FwHandler::Match => "fw-match",
        }
    }
}

/// The PPC 440 core state.
#[derive(Debug, Default)]
pub struct Ppc440 {
    cursor: BusyCursor,
    handler_counts: [u64; 6],
    stalls: u64,
    stalled_for: SimTime,
}

impl Ppc440 {
    /// A fresh, idle core.
    pub fn new() -> Self {
        Self::default()
    }

    /// Run `handler` with work arriving at `arrival`; returns when the
    /// handler completes (start is delayed while earlier handlers run).
    pub fn run(&mut self, cm: &CostModel, handler: FwHandler, arrival: SimTime) -> SimTime {
        self.handler_counts[Self::idx(handler)] += 1;
        self.cursor.occupy(arrival, handler.cost(cm))
    }

    /// Run a handler with an explicit extra cost (e.g. per-DMA-command
    /// programming work for scatter/gather lists), recording its busy
    /// span on the node's PPC track.
    #[inline]
    pub fn run_with_extra_via(
        &mut self,
        cm: &CostModel,
        handler: FwHandler,
        arrival: SimTime,
        extra: SimTime,
        node: u32,
        sink: &mut impl TelemetrySink,
    ) -> SimTime {
        self.handler_counts[Self::idx(handler)] += 1;
        let cost = handler.cost(cm) + extra;
        let (start, done) = self.cursor.occupy_span(arrival, cost);
        sink.span(node, Component::Ppc, handler.label(), start, done);
        done
    }

    /// Occupy the core for an explicit duration (fast-path handlers whose
    /// cost is not one of the [`FwHandler`] classes), recording the span
    /// under `label`.
    #[inline]
    pub fn occupy_raw_via(
        &mut self,
        arrival: SimTime,
        cost: SimTime,
        label: &'static str,
        node: u32,
        sink: &mut impl TelemetrySink,
    ) -> SimTime {
        let (start, done) = self.cursor.occupy_span(arrival, cost);
        sink.span(node, Component::Ppc, label, start, done);
        done
    }

    /// Wedge the core from `arrival` for `duration`: no handler makes
    /// progress until the stall ends, and already-queued work simply
    /// resumes afterwards. Used by the fault-injection subsystem to model
    /// a watchdog-recovered firmware stall; counted separately from
    /// handler work so utilization attribution stays honest.
    pub fn stall(&mut self, arrival: SimTime, duration: SimTime) -> SimTime {
        self.stalls += 1;
        self.stalled_for += duration;
        self.cursor.occupy(arrival, duration)
    }

    /// Number of injected stalls served.
    pub fn stall_count(&self) -> u64 {
        self.stalls
    }

    /// Total time spent wedged by injected stalls.
    pub fn stalled_for(&self) -> SimTime {
        self.stalled_for
    }

    fn idx(h: FwHandler) -> usize {
        match h {
            FwHandler::TxCommand => 0,
            FwHandler::TxDmaSetup => 1,
            FwHandler::RxHeader => 2,
            FwHandler::RxCommand => 3,
            FwHandler::Completion => 4,
            FwHandler::Match => 5,
        }
    }

    /// Invocation count for a handler class.
    pub fn count(&self, handler: FwHandler) -> u64 {
        self.handler_counts[Self::idx(handler)]
    }

    /// When the core becomes idle.
    pub fn free_at(&self) -> SimTime {
        self.cursor.free_at()
    }

    /// Total time the core spent executing handlers (and stalls).
    pub fn busy_total(&self) -> SimTime {
        self.cursor.busy_total()
    }

    /// Utilization over `[0, now]`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.cursor.utilization(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xt3_telemetry::NullSink;

    #[test]
    fn handlers_serialize_on_the_single_core() {
        let cm = CostModel::paper();
        let mut ppc = Ppc440::new();
        let t1 = ppc.run(&cm, FwHandler::RxHeader, SimTime::ZERO);
        let t2 = ppc.run(&cm, FwHandler::TxCommand, SimTime::ZERO);
        assert_eq!(t1, cm.fw_rx_hdr);
        assert_eq!(t2, cm.fw_rx_hdr + cm.fw_tx_cmd, "tx queues behind rx");
    }

    #[test]
    fn idle_core_starts_immediately() {
        let cm = CostModel::paper();
        let mut ppc = Ppc440::new();
        let done = ppc.run(&cm, FwHandler::Completion, SimTime::from_us(5));
        assert_eq!(done, SimTime::from_us(5) + cm.fw_completion);
    }

    #[test]
    fn extra_cost_for_scatter_gather() {
        let cm = CostModel::paper();
        let mut ppc = Ppc440::new();
        let extra = SimTime::from_ns(1000);
        let done = ppc.run_with_extra_via(
            &cm,
            FwHandler::TxDmaSetup,
            SimTime::ZERO,
            extra,
            0,
            &mut NullSink,
        );
        assert_eq!(done, cm.fw_tx_dma_setup + extra);
    }

    #[test]
    fn counts_per_handler() {
        let cm = CostModel::paper();
        let mut ppc = Ppc440::new();
        ppc.run(&cm, FwHandler::RxHeader, SimTime::ZERO);
        ppc.run(&cm, FwHandler::RxHeader, SimTime::ZERO);
        ppc.run(&cm, FwHandler::Match, SimTime::ZERO);
        assert_eq!(ppc.count(FwHandler::RxHeader), 2);
        assert_eq!(ppc.count(FwHandler::Match), 1);
        assert_eq!(ppc.count(FwHandler::TxCommand), 0);
    }

    #[test]
    fn stall_wedges_the_core() {
        let cm = CostModel::paper();
        let mut ppc = Ppc440::new();
        let end = ppc.stall(SimTime::ZERO, SimTime::from_us(10));
        assert_eq!(end, SimTime::from_us(10));
        let done = ppc.run(&cm, FwHandler::RxHeader, SimTime::ZERO);
        assert_eq!(
            done,
            SimTime::from_us(10) + cm.fw_rx_hdr,
            "work resumes after the stall"
        );
        assert_eq!(ppc.stall_count(), 1);
        assert_eq!(ppc.stalled_for(), SimTime::from_us(10));
    }

    #[test]
    fn handler_costs_map_to_model() {
        let cm = CostModel::paper();
        assert_eq!(FwHandler::TxCommand.cost(&cm), cm.fw_tx_cmd);
        assert_eq!(FwHandler::Match.cost(&cm), cm.fw_match);
    }
}
