//! The link model.
//!
//! Each physical link in the 3-D topology carries up to 2.5 GB/s of data
//! payload per direction in 64-byte packets, protected by a 16-bit CRC with
//! retries (paper §2). We model a link as a FIFO serialized resource: a
//! message occupies the link for its serialization time (packet count ×
//! packet time), and injected CRC errors add per-packet retry time.

use xt3_sim::{Bandwidth, BusyCursor, SimRng, SimTime};

/// Static link parameters.
#[derive(Debug, Clone, Copy)]
pub struct LinkConfig {
    /// Data payload bandwidth per direction. Paper §2: 2.5 GB/s after
    /// packet and reliability-protocol overhead.
    pub payload_bandwidth: Bandwidth,
    /// Router traversal latency per hop.
    pub hop_latency: SimTime,
    /// Packet size used by the router (paper §2: 64 bytes).
    pub packet_bytes: u32,
    /// Maximum user payload that rides inside the 64-byte header packet
    /// (paper §6: 12 bytes).
    pub header_piggyback_max: u32,
    /// Probability that a packet fails its 16-bit link CRC and must be
    /// retried. Zero for calibrated benchmark runs; non-zero in fault
    /// injection tests.
    pub crc_error_prob: f64,
}

/// Link turnaround per CRC-retried packet, on top of resending it.
pub const RETRY_TURNAROUND: SimTime = SimTime::from_ns(200);

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            payload_bandwidth: Bandwidth::from_gb_per_sec(2.5),
            hop_latency: SimTime::from_ns(50),
            packet_bytes: 64,
            header_piggyback_max: 12,
            crc_error_prob: 0.0,
        }
    }
}

impl LinkConfig {
    /// The same link with a different piggyback limit (ablation for the
    /// 12-byte optimization, §6).
    pub fn with_piggyback_max(mut self, bytes: u32) -> Self {
        self.header_piggyback_max = bytes;
        self
    }

    /// Whether a payload of `bytes` rides in the header packet: the one
    /// rule the fabric, the send side, the receive side and the firmware
    /// share.
    pub fn piggybacks(&self, bytes: u64) -> bool {
        bytes <= u64::from(self.header_piggyback_max)
    }

    /// Number of wire packets for a message with `payload` bytes of user
    /// data: one header packet (which absorbs payloads up to the piggyback
    /// limit) plus payload packets.
    pub fn packets_for(&self, payload: u64) -> u64 {
        if self.piggybacks(payload) {
            1
        } else {
            1 + payload.div_ceil(self.packet_bytes as u64)
        }
    }

    /// Time for `packets` packets to serialize onto the link.
    pub fn serialization_time(&self, packets: u64) -> SimTime {
        self.payload_bandwidth
            .transfer_time(packets * self.packet_bytes as u64)
    }
}

/// One direction of one physical link.
#[derive(Debug, Default)]
pub struct Link {
    cursor: BusyCursor,
    packets: u64,
    retries: u64,
    stall_total: SimTime,
}

impl Link {
    /// A fresh, idle link.
    pub fn new() -> Self {
        Self::default()
    }

    /// Transmit `packets` packets arriving at the link head at `arrival`.
    ///
    /// Returns `(start, done)`: when the first byte starts onto the link
    /// and when the last byte has left it. CRC retries (sampled from `rng`
    /// with the configured probability) extend the occupancy.
    pub fn transmit(
        &mut self,
        cfg: &LinkConfig,
        rng: &mut SimRng,
        arrival: SimTime,
        packets: u64,
    ) -> (SimTime, SimTime) {
        let mut occupancy = cfg.serialization_time(packets);
        if cfg.crc_error_prob > 0.0 {
            let errs = sample_packet_errors(rng, packets, cfg.crc_error_prob);
            if errs > 0 {
                self.retries += errs;
                occupancy += (RETRY_TURNAROUND + cfg.serialization_time(1)).times(errs);
            }
        }
        self.packets += packets;
        let (start, done) = self.cursor.occupy_span(arrival, occupancy);
        self.stall_total += start.saturating_sub(arrival);
        (start, done)
    }

    /// When the link becomes free.
    pub fn free_at(&self) -> SimTime {
        self.cursor.free_at()
    }

    /// Total packets carried.
    pub fn packets_carried(&self) -> u64 {
        self.packets
    }

    /// Total CRC retries performed.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Total time messages spent stalled at the link head behind earlier
    /// traffic (head-of-line blocking).
    pub fn stall_total(&self) -> SimTime {
        self.stall_total
    }

    /// Total time the link spent serializing packets.
    pub fn busy_total(&self) -> SimTime {
        self.cursor.busy_total()
    }

    /// Utilization in `[0,1]` over `[0, now]`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.cursor.utilization(now)
    }
}

/// Sample the number of packet CRC errors among `packets` transmissions
/// with per-packet probability `p`.
///
/// Exact Bernoulli sampling for small packet counts; for bulk transfers
/// (an 8 MB message is >131k packets) we use a deterministic
/// expectation-with-remainder scheme so cost stays O(1) while the long-run
/// rate is exactly `p`.
fn sample_packet_errors(rng: &mut SimRng, packets: u64, p: f64) -> u64 {
    const EXACT_LIMIT: u64 = 4096;
    if packets <= EXACT_LIMIT {
        (0..packets).filter(|_| rng.chance(p)).count() as u64
    } else {
        let expect = packets as f64 * p;
        let base = expect.floor() as u64;
        let frac = expect - base as f64;
        base + u64::from(rng.chance(frac))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_count_honors_piggyback() {
        let cfg = LinkConfig::default();
        assert_eq!(cfg.packets_for(0), 1);
        assert_eq!(cfg.packets_for(12), 1);
        assert_eq!(cfg.packets_for(13), 2);
        assert_eq!(cfg.packets_for(64), 2);
        assert_eq!(cfg.packets_for(65), 3);
        assert_eq!(cfg.packets_for(8 << 20), 1 + (8u64 << 20) / 64);
    }

    #[test]
    fn piggyback_limit_is_an_ablation_knob() {
        let cfg = LinkConfig::default().with_piggyback_max(0);
        assert!(cfg.piggybacks(0));
        assert!(!cfg.piggybacks(1));
        assert_eq!(cfg.packets_for(8), 2);
    }

    #[test]
    fn serialization_time_is_linear_in_packets() {
        let cfg = LinkConfig::default();
        // One 64-byte packet at 2.5 GB/s = 25.6 ns.
        assert_eq!(cfg.serialization_time(1), SimTime::from_ps(25_600));
        assert_eq!(cfg.serialization_time(10), SimTime::from_ps(256_000));
    }

    #[test]
    fn link_serializes_messages() {
        let cfg = LinkConfig::default();
        let mut rng = SimRng::new(1);
        let mut link = Link::new();
        let (s1, d1) = link.transmit(&cfg, &mut rng, SimTime::ZERO, 10);
        let (s2, _d2) = link.transmit(&cfg, &mut rng, SimTime::ZERO, 10);
        assert_eq!(s1, SimTime::ZERO);
        assert_eq!(s2, d1, "second message queues behind the first");
        assert_eq!(link.packets_carried(), 20);
        assert_eq!(link.retries(), 0);
        assert_eq!(
            link.stall_total(),
            d1,
            "the second message stalls head-of-line for the first's occupancy"
        );
        assert_eq!(link.busy_total(), cfg.serialization_time(20));
    }

    #[test]
    fn crc_errors_extend_occupancy() {
        let cfg = LinkConfig {
            crc_error_prob: 1.0,
            ..LinkConfig::default()
        };
        let clean = LinkConfig::default();
        let mut rng = SimRng::new(1);
        let mut dirty_link = Link::new();
        let mut clean_link = Link::new();
        let (_, d_dirty) = dirty_link.transmit(&cfg, &mut rng, SimTime::ZERO, 5);
        let (_, d_clean) = clean_link.transmit(&clean, &mut rng, SimTime::ZERO, 5);
        assert!(d_dirty > d_clean);
        assert_eq!(dirty_link.retries(), 5);
    }

    #[test]
    fn bulk_error_sampling_matches_rate() {
        let mut rng = SimRng::new(9);
        let packets = 1_000_000;
        let p = 1e-3;
        let errs = sample_packet_errors(&mut rng, packets, p);
        let expect = packets as f64 * p;
        assert!(
            (errs as f64 - expect).abs() <= 1.0,
            "errs={errs} expect={expect}"
        );
    }

    #[test]
    fn exact_error_sampling_is_plausible() {
        let mut rng = SimRng::new(11);
        let errs = sample_packet_errors(&mut rng, 4000, 0.25);
        // Loose 6-sigma style bound around 1000.
        assert!((800..=1200).contains(&errs), "errs={errs}");
    }
}
