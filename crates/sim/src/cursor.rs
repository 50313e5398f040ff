//! Busy cursors: the workhorse abstraction for modelling serialized
//! resources.
//!
//! Nearly every shared resource in the platform — the host CPU, the
//! SeaStar's embedded PowerPC, each DMA engine, each network link, the
//! HyperTransport bus — processes one thing at a time. A [`BusyCursor`]
//! models such a resource as "busy until time T": a new piece of work
//! arriving at time `t` starts at `max(t, T)`, occupies the resource for its
//! duration, and pushes the cursor forward. This captures queueing delay and
//! contention exactly for FIFO resources without simulating them
//! cycle-by-cycle.
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![deny(clippy::panic, clippy::unreachable, clippy::unimplemented)]

use crate::time::SimTime;

/// A serialized resource that is busy until some instant.
#[derive(Debug, Clone, Copy, Default)]
pub struct BusyCursor {
    free_at: SimTime,
    /// Total time the resource has spent occupied (for utilization stats).
    busy_total: SimTime,
}

impl BusyCursor {
    /// A resource that is free from time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The instant the resource becomes free.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Occupy the resource for `duration`, with the work arriving at
    /// `arrival`. Returns the *completion* time: work starts when both the
    /// work has arrived and the resource is free.
    pub fn occupy(&mut self, arrival: SimTime, duration: SimTime) -> SimTime {
        self.occupy_span(arrival, duration).1
    }

    /// Like [`occupy`](Self::occupy) but also returns the start time
    /// (useful when the caller needs the queueing delay).
    pub fn occupy_span(&mut self, arrival: SimTime, duration: SimTime) -> (SimTime, SimTime) {
        let start = self.free_at.max(arrival);
        let done = start + duration;
        self.free_at = done;
        self.busy_total += duration;
        (start, done)
    }

    /// Push the free time forward to at least `t` without accounting busy
    /// time (used when a resource is blocked by an external condition).
    pub fn block_until(&mut self, t: SimTime) {
        self.free_at = self.free_at.max(t);
    }

    /// Total occupied time.
    pub fn busy_total(&self) -> SimTime {
        self.busy_total
    }

    /// Utilization over the window `[0, now]`, in `[0, 1]`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        if now == SimTime::ZERO {
            return 0.0;
        }
        (self.busy_total.ps() as f64 / now.ps() as f64).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn back_to_back_work_serializes() {
        let mut c = BusyCursor::new();
        let d = SimTime::from_ns(100);
        // Two jobs arriving at t=0: second queues behind first.
        assert_eq!(c.occupy(SimTime::ZERO, d), SimTime::from_ns(100));
        assert_eq!(c.occupy(SimTime::ZERO, d), SimTime::from_ns(200));
        // A job arriving after the resource is free starts immediately.
        assert_eq!(c.occupy(SimTime::from_ns(500), d), SimTime::from_ns(600));
        assert_eq!(c.busy_total(), SimTime::from_ns(300));
    }

    #[test]
    fn occupy_span_reports_queueing() {
        let mut c = BusyCursor::new();
        c.occupy(SimTime::ZERO, SimTime::from_ns(50));
        let (start, done) = c.occupy_span(SimTime::from_ns(10), SimTime::from_ns(5));
        assert_eq!(start, SimTime::from_ns(50));
        assert_eq!(done, SimTime::from_ns(55));
    }

    #[test]
    fn block_until_only_moves_forward() {
        let mut c = BusyCursor::new();
        c.block_until(SimTime::from_ns(100));
        c.block_until(SimTime::from_ns(50));
        assert_eq!(c.free_at(), SimTime::from_ns(100));
    }

    #[test]
    fn utilization() {
        let mut c = BusyCursor::new();
        c.occupy(SimTime::ZERO, SimTime::from_ns(25));
        assert!((c.utilization(SimTime::from_ns(100)) - 0.25).abs() < 1e-12);
        assert_eq!(c.utilization(SimTime::ZERO), 0.0);
    }
}
