//! The host Opteron model.
//!
//! Each Red Storm node has one 2.0 GHz AMD Opteron (paper §5.1). The host
//! runs the application, the OS kernel with the generic Portals library,
//! and all interrupt handlers — serialized on a single busy cursor. Trap
//! and interrupt costs come from the cost model (75 ns null trap, ≥2 µs
//! interrupt; §3.3).

use xt3_seastar::cost::CostModel;
use xt3_sim::{BusyCursor, SimTime};
use xt3_telemetry::{Component, TelemetrySink};

/// Host CPU counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostCounters {
    /// Kernel traps taken (API crossings).
    pub traps: u64,
    /// Interrupts serviced.
    pub interrupts: u64,
}

/// The host CPU: one serialized execution resource.
#[derive(Debug, Default)]
pub struct HostCpu {
    cursor: BusyCursor,
    /// Counters.
    pub counters: HostCounters,
}

impl HostCpu {
    /// A fresh, idle CPU.
    pub fn new() -> Self {
        Self::default()
    }

    /// Occupy the CPU for `cost`, with work arriving at `arrival`; returns
    /// completion time.
    pub fn run(&mut self, arrival: SimTime, cost: SimTime) -> SimTime {
        self.cursor.occupy(arrival, cost)
    }

    /// [`HostCpu::run`] with telemetry: records the occupancy on the
    /// node's host track under `label`. Same cursor math, same return.
    #[inline]
    pub fn run_span(
        &mut self,
        arrival: SimTime,
        cost: SimTime,
        label: &'static str,
        node: u32,
        sink: &mut impl TelemetrySink,
    ) -> SimTime {
        let (start, done) = self.cursor.occupy_span(arrival, cost);
        sink.span(node, Component::Host, label, start, done);
        done
    }

    /// Take a kernel trap at `arrival`, recorded as a "trap" span.
    #[inline]
    pub fn trap_span(
        &mut self,
        cm: &CostModel,
        arrival: SimTime,
        node: u32,
        sink: &mut impl TelemetrySink,
    ) -> SimTime {
        self.counters.traps += 1;
        self.run_span(arrival, cm.host_trap, "trap", node, sink)
    }

    /// Enter an interrupt handler at `arrival` (entry + exit overhead; the
    /// handler body is charged separately by the caller): the overhead shows
    /// up as an "interrupt" span, and the per-node interrupt counter ticks.
    #[inline]
    pub fn interrupt_span(
        &mut self,
        cm: &CostModel,
        arrival: SimTime,
        node: u32,
        sink: &mut impl TelemetrySink,
    ) -> SimTime {
        self.counters.interrupts += 1;
        self.run_span(arrival, cm.host_interrupt, "interrupt", node, sink)
    }

    /// Total time the CPU spent occupied.
    pub fn busy_total(&self) -> SimTime {
        self.cursor.busy_total()
    }

    /// When the CPU becomes free.
    pub fn free_at(&self) -> SimTime {
        self.cursor.free_at()
    }

    /// Utilization over `[0, now]`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.cursor.utilization(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xt3_telemetry::Telemetry;

    #[test]
    fn traps_and_interrupts_serialize() {
        let cm = CostModel::paper();
        let mut h = HostCpu::new();
        let t1 = h.trap_span(&cm, SimTime::ZERO, 0, &mut Telemetry::disabled());
        assert_eq!(t1, SimTime::from_ns(75));
        let t2 = h.interrupt_span(&cm, SimTime::ZERO, 0, &mut Telemetry::disabled());
        assert_eq!(
            t2,
            SimTime::from_ns(75 + 2000),
            "interrupt queues behind trap"
        );
        assert_eq!(h.counters.traps, 1);
        assert_eq!(h.counters.interrupts, 1);
    }

    #[test]
    fn idle_cpu_starts_work_at_arrival() {
        let cm = CostModel::paper();
        let mut h = HostCpu::new();
        let done = h.trap_span(&cm, SimTime::from_us(10), 0, &mut Telemetry::disabled());
        assert_eq!(done, SimTime::from_us(10) + SimTime::from_ns(75));
    }
}
