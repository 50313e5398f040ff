//! The sink trait every instrumented layer records through.

use xt3_sim::SimTime;

/// A serialized hardware resource whose occupancy we timeline, one track
/// per component per node in the Perfetto export.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Component {
    /// The host Opteron.
    Host,
    /// The SeaStar's embedded PowerPC 440.
    Ppc,
    /// The transmit DMA engine.
    TxDma,
    /// The receive DMA engine.
    RxDma,
    /// One outgoing fabric link, by router port index (0..6).
    Link(u8),
}

impl Component {
    /// Stable per-node track id for trace exports (Perfetto `tid`).
    pub fn track_id(self) -> u32 {
        match self {
            Component::Host => 0,
            Component::Ppc => 1,
            Component::TxDma => 2,
            Component::RxDma => 3,
            Component::Link(port) => 4 + port as u32,
        }
    }

    /// The component whose [`Component::track_id`] is `id`.
    pub fn from_track_id(id: u32) -> Component {
        match id {
            0 => Component::Host,
            1 => Component::Ppc,
            2 => Component::TxDma,
            3 => Component::RxDma,
            // Track ids are made from a `u8` port.
            port => Component::Link((port - 4) as u8),
        }
    }

    /// Human-readable track name.
    pub fn track_name(self) -> &'static str {
        match self {
            Component::Host => "host (Opteron)",
            Component::Ppc => "PPC 440",
            Component::TxDma => "TX DMA",
            Component::RxDma => "RX DMA",
            Component::Link(0) => "link X+",
            Component::Link(1) => "link X-",
            Component::Link(2) => "link Y+",
            Component::Link(3) => "link Y-",
            Component::Link(4) => "link Z+",
            Component::Link(_) => "link Z-",
        }
    }
}

/// Recording interface for all instrumented layers.
///
/// Implementors must be pure observers: a call may update the sink's own
/// storage and nothing else. Hot paths take `&mut impl TelemetrySink`, so
/// the concrete [`crate::Telemetry`] recorder inlines down to one
/// `enabled` branch; `Telemetry::disabled()` records nothing.
pub trait TelemetrySink {
    /// True when the sink is recording. Callers may use this to skip
    /// building expensive arguments.
    fn is_enabled(&self) -> bool;

    /// Does nothing. Every count lives in the model that produces it
    /// (`HostCounters`, `FwCounters`, the DMA engines, the high-water
    /// marks `telemetry_report` reads), so a sink keeps none. The method
    /// stays because the benchmark package's registry probe
    /// (`benchmark/src/probes.rs`), held fixed as a baseline, calls it.
    #[inline(always)]
    fn add(&mut self, _node: u32, _name: &'static str, _delta: u64) {}

    /// Record that `component` on `node` was busy over `[start, end)`.
    fn span(
        &mut self,
        node: u32,
        component: Component,
        label: &'static str,
        start: SimTime,
        end: SimTime,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn track_ids_are_unique_per_component() {
        let all = [
            Component::Host,
            Component::Ppc,
            Component::TxDma,
            Component::RxDma,
            Component::Link(0),
            Component::Link(5),
        ];
        let mut ids: Vec<u32> = all.iter().map(|c| c.track_id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), all.len());
    }

    #[test]
    fn a_track_id_names_its_component_back() {
        let fixed = [
            Component::Host,
            Component::Ppc,
            Component::TxDma,
            Component::RxDma,
        ];
        let links = (0..=u8::MAX).map(Component::Link);
        for c in fixed.into_iter().chain(links) {
            assert_eq!(Component::from_track_id(c.track_id()), c);
        }
    }
}
