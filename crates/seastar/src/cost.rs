//! The platform cost model: every host, firmware and HyperTransport
//! timing constant in one place. The wire constants (link bandwidth, hop
//! latency, packet size, the §6 piggyback limit) live in
//! `xt3_topology::link::LinkConfig`, their one home.
//!
//! Constants come in two classes:
//!
//! 1. **Published** — taken verbatim from the paper (trap cost, interrupt
//!    cost, clock rates). These are cited inline.
//! 2. **Calibrated** — not published (host matching cost, firmware handler
//!    costs, HyperTransport transaction latencies). These were fitted
//!    *once* so the four headline NetPIPE numbers match (§6: put 5.39 µs,
//!    get 6.60 µs, MPICH-1.2.6 7.97 µs, MPICH2 8.40 µs at 1 byte; put peak
//!    1108.76 MB/s at 8 MB), then frozen for every experiment, ablation
//!    and test in the repository. The calibration test lives in
//!    `crates/netpipe` and the fit is documented in `EXPERIMENTS.md`.

use xt3_sim::{Bandwidth, SimTime};

/// The host, firmware and HyperTransport timing constants of the
/// simulated platform.
#[derive(Debug, Clone, Copy)]
pub struct CostModel {
    // ----- Host (AMD Opteron, 2.0 GHz; paper §5.1) -----
    /// Cost of a null trap into the Catamount kernel. Published: ~75 ns
    /// (§3.3: "a NULL-trap into the Catamount kernel requires
    /// approximately 75 ns").
    pub host_trap: SimTime,
    /// Cost of taking and retiring a host interrupt. Published: "at least
    /// 2 µs" (§3.3).
    pub host_interrupt: SimTime,
    /// Host-side Portals library work to initiate a put/get: allocate a TX
    /// pending, build the Portals header in the upper pending, format the
    /// transmit command. Calibrated.
    pub host_tx_proc: SimTime,
    /// Posting one command into a firmware mailbox (uncached HyperTransport
    /// write plus tail-index update). Calibrated.
    pub host_cmd_post: SimTime,
    /// Host-side Portals matching on one incoming header: EQ read, upper
    /// pending lookup, ME list walk, MD checks. Calibrated.
    pub host_match: SimTime,
    /// Translating a completion into an application-visible Portals event.
    /// Calibrated.
    pub host_event_post: SimTime,
    /// One application-level event-queue poll (library entry + EQ slot
    /// read). Calibrated.
    pub host_eq_poll: SimTime,
    /// Host memcpy bandwidth for library-level copies (piggybacked payload,
    /// MPI eager buffering).
    pub host_copy_bw: Bandwidth,

    // ----- Embedded PowerPC 440 (500 MHz dual-issue; paper §2) -----
    /// Dispatching a transmit command from a mailbox: lower-pending init,
    /// source allocation, TX-list enqueue. Calibrated.
    pub fw_tx_cmd: SimTime,
    /// Programming the TX DMA engine for the pending at the head of the TX
    /// list. Calibrated.
    pub fw_tx_dma_setup: SimTime,
    /// Handling a new message header from the RX DMA engine: source hash
    /// lookup, RX pending allocation, header copy staging. Calibrated.
    pub fw_rx_hdr: SimTime,
    /// Handling a receive-deposit command from the host. Calibrated.
    pub fw_rx_cmd: SimTime,
    /// Handling a DMA completion and posting an event. Calibrated.
    pub fw_completion: SimTime,
    /// Offloaded (accelerated-mode) Portals matching per header on the
    /// PPC 440. Slower than the host's matching because of the simpler
    /// core. Used only by accelerated mode (§3.3 future work).
    pub fw_match: SimTime,
    /// Turning a reply-transmit command into a wire message. Cheaper than
    /// a full transmit: the firmware synthesizes the reply header from
    /// the command, with no upper-pending fetch across HT. Calibrated to
    /// the get/put latency delta (6.60 vs 5.39 us).
    pub fw_reply_tx: SimTime,
    /// Processing an incoming Reply/Ack header. Cheaper than a fresh
    /// message header: the pending state is known from the originating
    /// command. Calibrated.
    pub fw_reply_rx: SimTime,

    // ----- HyperTransport cave (800 MHz HT; paper §2) -----
    /// Latency of a posted write crossing HT (host->NIC mailbox or
    /// NIC->host event/pending write). Calibrated; the paper notes reads
    /// are expensive round trips, writes cheaper.
    pub ht_write_latency: SimTime,
    /// Latency of a read round trip across HT (DMA fetching the header
    /// from the upper pending). Calibrated.
    pub ht_read_latency: SimTime,
    /// Practical sustained DMA payload rate host->NIC (TX DMA reads).
    /// Calibrated to the Fig. 5 peak: 1108.76 MB/s at 8 MB means the
    /// end-to-end pipe sustains ~1109.9 MB/s.
    pub ht_tx_payload: Bandwidth,
    /// Practical sustained DMA payload rate NIC->host (RX DMA writes).
    /// Posted writes stream faster than the round-trip-limited reads; the
    /// receive side is therefore not the pipeline bottleneck (which is
    /// how the bidirectional test sustains ~2x the unidirectional rate,
    /// Fig. 7).
    pub ht_rx_payload: Bandwidth,
    /// Fractional mutual slowdown while the read and write engines stream
    /// simultaneously (HT command/response interleaving): each overlapped
    /// nanosecond costs both directions `penalty` extra. Calibrated to the
    /// Fig. 7 bidirectional peak (2203.19 MB/s = 2 x 1101.6, i.e. ~0.65%
    /// below 2 x 1108.76; the outgoing read overlaps the incoming write
    /// for roughly half its duration).
    pub ht_duplex_penalty: f64,
}

impl CostModel {
    /// The paper-calibrated model. See module docs; fitted against §6.
    pub fn paper() -> Self {
        CostModel {
            host_trap: SimTime::from_ns(75),
            host_interrupt: SimTime::from_ns(2000),
            host_tx_proc: SimTime::from_ns(300),
            host_cmd_post: SimTime::from_ns(300),
            host_match: SimTime::from_ns(650),
            host_event_post: SimTime::from_ns(260),
            host_eq_poll: SimTime::from_ns(125),
            host_copy_bw: Bandwidth::from_gb_per_sec(4.0),

            fw_tx_cmd: SimTime::from_ns(420),
            fw_tx_dma_setup: SimTime::from_ns(180),
            fw_rx_hdr: SimTime::from_ns(450),
            fw_rx_cmd: SimTime::from_ns(380),
            fw_completion: SimTime::from_ns(250),
            fw_match: SimTime::from_ns(900),
            fw_reply_tx: SimTime::from_ns(80),
            fw_reply_rx: SimTime::from_ns(90),

            ht_write_latency: SimTime::from_ns(250),
            ht_read_latency: SimTime::from_ns(280),
            ht_tx_payload: Bandwidth::from_mb_per_sec(1109.93),
            ht_rx_payload: Bandwidth::from_gb_per_sec(2.2),
            ht_duplex_penalty: 0.016,
        }
    }

    /// An idealized model with free host processing and no interrupts —
    /// used by tests that check protocol *logic* rather than timing.
    pub fn ideal() -> Self {
        let zero = SimTime::ZERO;
        CostModel {
            host_trap: zero,
            host_interrupt: zero,
            host_tx_proc: zero,
            host_cmd_post: zero,
            host_match: zero,
            host_event_post: zero,
            host_eq_poll: zero,
            host_copy_bw: Bandwidth::from_gb_per_sec(1000.0),
            fw_tx_cmd: zero,
            fw_tx_dma_setup: zero,
            fw_rx_hdr: zero,
            fw_rx_cmd: zero,
            fw_completion: zero,
            fw_match: zero,
            fw_reply_tx: zero,
            fw_reply_rx: zero,
            ht_write_latency: zero,
            ht_read_latency: zero,
            ht_tx_payload: Bandwidth::from_gb_per_sec(2.8),
            ht_rx_payload: Bandwidth::from_gb_per_sec(2.8),
            ht_duplex_penalty: 0.0,
        }
    }

    /// Paper model with a different interrupt cost — the ablation the
    /// paper motivates ("it will be necessary to eliminate all interrupts
    /// from the data path", §3.3).
    pub fn with_interrupt_cost(mut self, cost: SimTime) -> Self {
        self.host_interrupt = cost;
        self
    }

    /// Scale every firmware (PPC 440) handler cost by `factor` — the
    /// embedded-processor-speed ablation: accelerated mode trades the
    /// host's fast Opteron for the 500 MHz PPC, so its latency is
    /// sensitive to exactly these costs (§3.3/§7).
    pub fn with_fw_scale(mut self, factor: f64) -> Self {
        let scale = |t: SimTime| SimTime::from_ns_f64(t.as_ns_f64() * factor);
        self.fw_tx_cmd = scale(self.fw_tx_cmd);
        self.fw_tx_dma_setup = scale(self.fw_tx_dma_setup);
        self.fw_rx_hdr = scale(self.fw_rx_hdr);
        self.fw_rx_cmd = scale(self.fw_rx_cmd);
        self.fw_completion = scale(self.fw_completion);
        self.fw_match = scale(self.fw_match);
        self.fw_reply_tx = scale(self.fw_reply_tx);
        self.fw_reply_rx = scale(self.fw_reply_rx);
        self
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_model_uses_published_constants() {
        let m = CostModel::paper();
        assert_eq!(m.host_trap, SimTime::from_ns(75));
        assert_eq!(m.host_interrupt, SimTime::from_us(2));
        assert!(
            m.ht_read_latency > m.ht_write_latency,
            "reads are round trips"
        );
    }

    #[test]
    fn calibrated_dma_rate_supports_paper_peak() {
        // 8 MB at the calibrated rate must take just under
        // 8 MB / 1108.76 MB/s so per-message overhead lands the measured
        // value on target.
        let m = CostModel::paper();
        let t = m.ht_tx_payload.transfer_time(8 << 20);
        let implied = (8u64 << 20) as f64 / t.as_secs_f64() / 1e6;
        assert!((implied - 1109.93).abs() < 0.5, "implied {implied} MB/s");
    }

    #[test]
    fn ablation_builders() {
        let m = CostModel::paper().with_interrupt_cost(SimTime::ZERO);
        assert_eq!(m.host_interrupt, SimTime::ZERO);
    }

    #[test]
    fn ideal_model_is_free() {
        let m = CostModel::ideal();
        assert_eq!(m.host_interrupt, SimTime::ZERO);
        assert_eq!(m.host_match, SimTime::ZERO);
    }
}
