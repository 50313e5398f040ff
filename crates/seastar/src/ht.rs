//! The HyperTransport cave.
//!
//! Paper §2: the host interface is 800 MHz HyperTransport — 3.2 GB/s
//! theoretical peak per direction, ~2.8 GB/s peak payload after protocol
//! overhead, "and a practical rate somewhat lower than that". §4.2 adds
//! the key latency asymmetry: the firmware never *reads* host memory in
//! the common path "because doing so requires a high latency round-trip
//! across the HyperTransport link", while writes are posted and cheap.
//!
//! The model tracks, per direction, a busy cursor at the *practical* DMA
//! payload rate (the calibrated ~1.11 GB/s that bounds the paper's Fig. 5
//! peak) and applies a small duplex penalty when both directions stream
//! simultaneously (calibrated to Fig. 7).

use crate::cost::CostModel;
use xt3_sim::{BusyCursor, SimTime};

/// Transfer direction across the HT link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HtDir {
    /// NIC reads from host memory (TX DMA payload fetch).
    Read,
    /// NIC writes to host memory (RX DMA deposit, event/pending writes).
    Write,
}

/// The HyperTransport link state.
#[derive(Debug, Default)]
pub struct HyperTransport {
    read: BusyCursor,
    write: BusyCursor,
}

impl HyperTransport {
    /// A fresh, idle link.
    pub fn new() -> Self {
        Self::default()
    }

    /// Move `bytes` of bulk DMA payload in `dir`, with the transfer
    /// eligible to start at `arrival`. Returns `(start, done)`.
    ///
    /// When the opposite-direction engine is busy at our start, both
    /// transfers contend for HT command/response slots: this transfer is
    /// stretched by `penalty x overlap` and the in-progress one is pushed
    /// out by the same amount (mutual slowdown during the overlap window).
    pub fn bulk(
        &mut self,
        cm: &CostModel,
        dir: HtDir,
        arrival: SimTime,
        bytes: u64,
    ) -> (SimTime, SimTime) {
        let (rate, this, other) = match dir {
            HtDir::Read => (cm.ht_tx_payload, &mut self.read, &mut self.write),
            HtDir::Write => (cm.ht_rx_payload, &mut self.write, &mut self.read),
        };
        let mut duration = rate.transfer_time(bytes);
        let eligible = this.free_at().max(arrival);
        let other_free_at = other.free_at();
        if other_free_at > eligible && cm.ht_duplex_penalty > 0.0 {
            let overlap = (other_free_at - eligible).min(duration);
            let extra = SimTime::from_ns_f64(overlap.as_ns_f64() * cm.ht_duplex_penalty);
            duration += extra;
            other.block_until(other_free_at + extra);
        }
        this.occupy_span(arrival, duration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn directions_are_independent_cursors() {
        let cm = CostModel::paper();
        let mut ht = HyperTransport::new();
        let (_, r_done) = ht.bulk(&cm, HtDir::Read, SimTime::ZERO, 1 << 20);
        // The write can start immediately even while the read streams
        // (full-duplex link) — but it pays the duplex penalty.
        let (w_start, _) = ht.bulk(&cm, HtDir::Write, SimTime::ZERO, 1 << 20);
        assert_eq!(w_start, SimTime::ZERO);
        assert!(r_done > SimTime::ZERO);
    }

    #[test]
    fn duplex_penalty_stretches_concurrent_transfers() {
        let cm = CostModel::paper();
        let mut solo = HyperTransport::new();
        let (_, solo_done) = solo.bulk(&cm, HtDir::Write, SimTime::ZERO, 8 << 20);

        let mut busy = HyperTransport::new();
        let (_, solo_read_done) = {
            let mut r = HyperTransport::new();
            r.bulk(&cm, HtDir::Read, SimTime::ZERO, 8 << 20)
        };
        busy.bulk(&cm, HtDir::Read, SimTime::ZERO, 8 << 20);
        let (_, dup_done) = busy.bulk(&cm, HtDir::Write, SimTime::ZERO, 8 << 20);

        // The write (fully inside the read's window) is stretched by the
        // penalty over its whole duration...
        let ratio = dup_done.as_ns_f64() / solo_done.as_ns_f64();
        assert!(
            (ratio - (1.0 + cm.ht_duplex_penalty)).abs() < 1e-3,
            "duplex stretch ratio {ratio}"
        );
        // ...and the in-progress read is pushed out by the same amount: an
        // empty read queued behind it starts later than the solo read ended.
        let (read_free_at, _) = busy.bulk(&cm, HtDir::Read, SimTime::ZERO, 0);
        assert!(read_free_at > solo_read_done);
    }

    #[test]
    fn no_penalty_when_other_direction_idle() {
        let cm = CostModel::paper();
        let mut ht = HyperTransport::new();
        let (_, first) = ht.bulk(&cm, HtDir::Write, SimTime::ZERO, 1 << 20);
        // Second write long after the first: no read traffic, no penalty.
        let (s, d) = ht.bulk(&cm, HtDir::Write, first + SimTime::from_ms(1), 1 << 20);
        assert_eq!(d - s, cm.ht_rx_payload.transfer_time(1 << 20));
    }

    #[test]
    fn same_direction_serializes() {
        let cm = CostModel::paper();
        let mut ht = HyperTransport::new();
        let (_, d1) = ht.bulk(&cm, HtDir::Read, SimTime::ZERO, 4096);
        let (s2, _) = ht.bulk(&cm, HtDir::Read, SimTime::ZERO, 4096);
        assert_eq!(s2, d1);
    }
}
