//! MPI implementation personalities.
//!
//! Both XT3 MPI implementations sit on identical Portals plumbing; what
//! differs is protocol thresholds and per-operation library overhead
//! (request allocation, queue management, locking). The overhead
//! constants below are the calibrated knobs that land each personality's
//! 1-byte NetPIPE latency on the paper's measurement (§6: 7.97 µs for
//! the MPICH-1.2.6 port, 8.40 µs for Cray MPICH2, vs. 5.39 µs raw
//! Portals put); bandwidth at scale is dominated by the shared Portals
//! path, which is why the paper sees "both MPI implementations achieving
//! the same performance" there.

use xt3_sim::SimTime;

/// Tunable constants of one MPI implementation.
#[derive(Debug, Clone, Copy)]
pub struct Personality {
    /// Display name.
    pub name: &'static str,
    /// Largest payload sent eagerly; above this, rendezvous.
    pub eager_max: u64,
    /// Library overhead on the send path (request setup, protocol
    /// selection), beyond the Portals calls themselves.
    pub send_overhead: SimTime,
    /// Library overhead when posting a receive (queue search, request
    /// setup).
    pub recv_overhead: SimTime,
    /// Library overhead per progressed Portals event (queue updates,
    /// request completion).
    pub event_overhead: SimTime,
    /// Bounce-buffer count for unexpected messages.
    pub unexpected_buffers: u32,
    /// Size of each bounce buffer.
    pub unexpected_buffer_bytes: u64,
}

impl Personality {
    /// The Sandia MPICH-1.2.6 port for Portals 3.3.
    pub fn mpich1() -> Self {
        Personality {
            name: "mpich-1.2.6",
            eager_max: 128 * 1024,
            send_overhead: SimTime::from_ns(350),
            recv_overhead: SimTime::from_ns(300),
            event_overhead: SimTime::from_ns(220),
            unexpected_buffers: 4,
            unexpected_buffer_bytes: 256 * 1024,
        }
    }

    /// The MPI-3 one-sided (RMA) personality.
    ///
    /// One-sided MPI maps straight onto Portals one-sided primitives:
    /// no posted-receive queue to search, no unexpected-message bounce
    /// buffers, no tag matching beyond the window id. Its per-operation
    /// overheads are accordingly lighter than either two-sided
    /// personality — the origin binds an MD and fires; the target's NIC
    /// does the rest. `eager_max` is irrelevant (there is no rendezvous
    /// switch; puts of any size are one-sided) and kept only so curve
    /// harnesses can read a uniform struct.
    pub fn rma() -> Self {
        Personality {
            name: "mpi-rma",
            eager_max: u64::MAX,
            send_overhead: SimTime::from_ns(250),
            recv_overhead: SimTime::from_ns(200),
            event_overhead: SimTime::from_ns(180),
            unexpected_buffers: 0,
            unexpected_buffer_bytes: 0,
        }
    }

    /// Cray's MPICH2.
    pub fn mpich2() -> Self {
        Personality {
            name: "mpich2",
            eager_max: 128 * 1024,
            send_overhead: SimTime::from_ns(480),
            recv_overhead: SimTime::from_ns(400),
            event_overhead: SimTime::from_ns(280),
            unexpected_buffers: 4,
            unexpected_buffer_bytes: 256 * 1024,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mpich2_is_heavier_than_mpich1() {
        // The paper measures MPICH2 1-byte latency above the MPICH-1.2.6
        // port (8.40 vs 7.97 us).
        let m1 = Personality::mpich1();
        let m2 = Personality::mpich2();
        assert!(m2.send_overhead > m1.send_overhead);
        assert!(m2.recv_overhead > m1.recv_overhead);
        assert_eq!(m1.eager_max, m2.eager_max);
    }
}
