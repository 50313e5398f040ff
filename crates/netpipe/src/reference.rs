//! The paper's published values (anchors for validation).
//!
//! Everything here is quoted from the paper; the calibration and shape
//! tests compare simulated results against these, and
//! `tests/paper_anchors.rs` holds the cost model to the platform
//! constants.

/// Figure 4 headline: 1-byte latencies in microseconds.
pub mod latency_1b {
    /// Portals put.
    pub const PUT_US: f64 = 5.39;
    /// Portals get.
    pub const GET_US: f64 = 6.60;
    /// Sandia MPICH-1.2.6 port.
    pub const MPICH1_US: f64 = 7.97;
    /// Cray MPICH2.
    pub const MPICH2_US: f64 = 8.40;
}

/// Figure 5: uni-directional bandwidth.
pub mod unidir {
    /// Put peak at 8 MB, MB/s.
    pub const PUT_PEAK_MB: f64 = 1108.76;
    /// Message size at the put peak.
    pub const PEAK_AT_BYTES: u64 = 8 << 20;
    /// "half the bandwidth for a unidirectional put being achieved at a
    /// message of around 7 KB".
    pub const HALF_BW_BYTES: f64 = 7.0 * 1024.0;
}

/// Figure 6: streaming bandwidth.
pub mod streaming {
    /// "Half bandwidth for this benchmark is achieved at around a message
    /// size of 5 KB".
    pub const HALF_BW_BYTES: f64 = 5.0 * 1024.0;
}

/// Figure 7: bidirectional bandwidth.
pub mod bidir {
    /// Put peak at 8 MB, MB/s (aggregate of both directions).
    pub const PUT_PEAK_MB: f64 = 2203.19;
    /// Message size at the put peak.
    pub const PEAK_AT_BYTES: u64 = 8 << 20;
}

/// Platform constants quoted in the text (§2, §3.3).
pub mod platform {
    /// Null trap, nanoseconds.
    pub const NULL_TRAP_NS: f64 = 75.0;
    /// Interrupt cost, microseconds ("at least 2 µs").
    pub const INTERRUPT_US: f64 = 2.0;
    /// Link payload bandwidth per direction, GB/s.
    pub const LINK_GB_S: f64 = 2.5;
    /// HyperTransport payload peak, GB/s.
    pub const HT_PAYLOAD_GB_S: f64 = 2.8;
    /// Piggyback limit, bytes.
    pub const PIGGYBACK_BYTES: u32 = 12;
    /// XT3 requirement: sustained network bandwidth per direction per
    /// node, GB/s (§1).
    pub const REQ_NODE_BW_GB_S: f64 = 1.5;
    /// XT3 requirement: nearest-neighbor MPI latency, µs (§1).
    pub const REQ_MPI_NEAR_US: f64 = 2.0;
    /// XT3 requirement: farthest-node MPI latency, µs (§1).
    pub const REQ_MPI_FAR_US: f64 = 5.0;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchors_are_internally_consistent() {
        // Runtime bindings keep the intent clear without constant-folded
        // assertions.
        let lats = [
            latency_1b::PUT_US,
            latency_1b::GET_US,
            latency_1b::MPICH1_US,
            latency_1b::MPICH2_US,
        ];
        assert!(lats.windows(2).all(|w| w[0] < w[1]), "latency ordering");
        let ratio = bidir::PUT_PEAK_MB / unidir::PUT_PEAK_MB;
        assert!((1.9..2.0).contains(&ratio), "bidir within 2x of unidir");
        let halves = [streaming::HALF_BW_BYTES, unidir::HALF_BW_BYTES];
        assert!(halves[0] < halves[1], "stream crosses half earlier");
    }
}
