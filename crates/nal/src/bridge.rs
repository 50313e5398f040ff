//! The Cray bridge layer.
//!
//! A bridge supplies the per-configuration pieces the shared Portals
//! library does not carry: the cost of crossing from the API to the
//! library (trap / syscall / none) and how buffers become DMA command
//! lists (single command vs. pinned scatter/gather).

use crate::addr::AddressSpace;
use xt3_seastar::cost::CostModel;
use xt3_seastar::dma::DmaList;
use xt3_sim::SimTime;

/// Which bridge a process uses (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BridgeKind {
    /// Catamount compute-node application.
    Qk,
    /// Linux user-level application.
    Uk,
    /// Linux kernel-level client.
    K,
}

/// A prepared buffer: DMA commands plus the host-side cost of producing
/// them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedBuffer {
    /// Physically contiguous chunks for the DMA engine.
    pub commands: DmaList,
    /// Host CPU time spent validating, pinning and translating.
    pub prep_cost: SimTime,
    /// Pages pinned (must be unpinned on completion; 0 for Catamount).
    pub pinned_pages: u32,
}

/// The bridge interface (paper §3.2: data movement between API and
/// library space plus address validation/translation).
///
/// `Send` so a node (which boxes its processes' bridges) can migrate to
/// a worker thread in a partitioned parallel run.
pub trait Bridge: Send {
    /// Which configuration this is.
    fn kind(&self) -> BridgeKind;

    /// Cost of one API-to-library crossing (a Portals API call entering
    /// the library).
    fn api_crossing(&self, cm: &CostModel) -> SimTime;

    /// Validate and translate a buffer for DMA, charging the appropriate
    /// host cost. Returns `None` when the range is invalid.
    fn prepare(
        &self,
        cm: &CostModel,
        space: &dyn AddressSpace,
        addr: u64,
        len: u32,
    ) -> Option<PreparedBuffer>;
}

/// Per-page pin + translate cost on Linux. Not in the paper's tables; a
/// conventional get_user_pages-era figure used by both Linux bridges.
const LINUX_PAGE_PIN_COST: SimTime = SimTime::from_ns(120);
/// Linux syscall entry/exit, heavier than Catamount's 75 ns trap.
const LINUX_SYSCALL_COST: SimTime = SimTime::from_ns(250);
/// Flat validation cost (bounds check) for any bridge.
const VALIDATE_COST: SimTime = SimTime::from_ns(40);

/// Catamount compute-node bridge.
#[derive(Debug, Default, Clone, Copy)]
pub struct QkBridge;

impl Bridge for QkBridge {
    fn kind(&self) -> BridgeKind {
        BridgeKind::Qk
    }

    fn api_crossing(&self, cm: &CostModel) -> SimTime {
        cm.host_trap
    }

    fn prepare(
        &self,
        _cm: &CostModel,
        space: &dyn AddressSpace,
        addr: u64,
        len: u32,
    ) -> Option<PreparedBuffer> {
        if !space.validate(addr, len as u64) {
            return None;
        }
        let (commands, pinned) = space.translate(addr, len);
        debug_assert_eq!(pinned, 0, "catamount never pins");
        debug_assert!(commands.len() <= 1, "catamount buffers are contiguous");
        Some(PreparedBuffer {
            commands,
            prep_cost: VALIDATE_COST,
            pinned_pages: 0,
        })
    }
}

/// Linux user-level bridge.
#[derive(Debug, Default, Clone, Copy)]
pub struct UkBridge;

impl Bridge for UkBridge {
    fn kind(&self) -> BridgeKind {
        BridgeKind::Uk
    }

    fn api_crossing(&self, _cm: &CostModel) -> SimTime {
        LINUX_SYSCALL_COST
    }

    fn prepare(
        &self,
        _cm: &CostModel,
        space: &dyn AddressSpace,
        addr: u64,
        len: u32,
    ) -> Option<PreparedBuffer> {
        if !space.validate(addr, len as u64) {
            return None;
        }
        let (commands, pinned) = space.translate(addr, len);
        Some(PreparedBuffer {
            commands,
            prep_cost: VALIDATE_COST + LINUX_PAGE_PIN_COST.times(pinned as u64),
            pinned_pages: pinned,
        })
    }
}

/// Linux kernel-level bridge (Lustre-style services).
#[derive(Debug, Default, Clone, Copy)]
pub struct KBridge;

impl Bridge for KBridge {
    fn kind(&self) -> BridgeKind {
        BridgeKind::K
    }

    fn api_crossing(&self, _cm: &CostModel) -> SimTime {
        // Already in the kernel: no privilege crossing, just a call.
        SimTime::from_ns(20)
    }

    fn prepare(
        &self,
        _cm: &CostModel,
        space: &dyn AddressSpace,
        addr: u64,
        len: u32,
    ) -> Option<PreparedBuffer> {
        if !space.validate(addr, len as u64) {
            return None;
        }
        let (commands, pinned) = space.translate(addr, len);
        // Kernel buffers are already resident; translation still walks
        // pages but pinning is free.
        Some(PreparedBuffer {
            commands,
            prep_cost: VALIDATE_COST + SimTime::from_ns(30).times(pinned as u64),
            pinned_pages: 0,
        })
    }
}

/// Construct the bridge for a kind (value-level dispatch for node config
/// tables).
pub fn bridge_for(kind: BridgeKind) -> Box<dyn Bridge> {
    match kind {
        BridgeKind::Qk => Box::new(QkBridge),
        BridgeKind::Uk => Box::new(UkBridge),
        BridgeKind::K => Box::new(KBridge),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{CatamountSpace, LinuxSpace};

    #[test]
    fn qkbridge_uses_trap_cost_and_one_command() {
        let cm = CostModel::paper();
        let space = CatamountSpace::new(1 << 20, 0);
        let b = QkBridge;
        assert_eq!(b.api_crossing(&cm), SimTime::from_ns(75));
        let p = b.prepare(&cm, &space, 0, 1 << 16).unwrap();
        assert_eq!(p.commands.len(), 1);
        assert_eq!(p.pinned_pages, 0);
        assert_eq!(p.prep_cost, SimTime::from_ns(40));
    }

    #[test]
    fn ukbridge_pays_per_page() {
        let cm = CostModel::paper();
        let space = LinuxSpace::new(1 << 20, 1);
        let b = UkBridge;
        assert!(b.api_crossing(&cm) > QkBridge.api_crossing(&cm));
        let p = b.prepare(&cm, &space, 0, 64 * 1024).unwrap();
        assert_eq!(p.commands.len(), 16);
        assert_eq!(p.pinned_pages, 16);
        assert_eq!(
            p.prep_cost,
            SimTime::from_ns(40) + SimTime::from_ns(120 * 16)
        );
    }

    #[test]
    fn kbridge_skips_pinning_cost() {
        let cm = CostModel::paper();
        let space = LinuxSpace::new(1 << 20, 1);
        let uk = UkBridge.prepare(&cm, &space, 0, 64 * 1024).unwrap();
        let k = KBridge.prepare(&cm, &space, 0, 64 * 1024).unwrap();
        assert_eq!(k.commands, uk.commands, "same translation");
        assert!(k.prep_cost < uk.prep_cost, "no pin cost in kernel");
        assert_eq!(k.pinned_pages, 0);
        assert!(KBridge.api_crossing(&cm) < QkBridge.api_crossing(&cm));
    }

    #[test]
    fn invalid_ranges_rejected_by_all_bridges() {
        let cm = CostModel::paper();
        let cat = CatamountSpace::new(4096, 0);
        let lin = LinuxSpace::new(4096, 1);
        assert!(QkBridge.prepare(&cm, &cat, 4000, 200).is_none());
        assert!(UkBridge.prepare(&cm, &lin, 4000, 200).is_none());
        assert!(KBridge.prepare(&cm, &lin, u64::MAX, 1).is_none());
    }

    #[test]
    fn bridge_for_dispatch() {
        assert_eq!(bridge_for(BridgeKind::Qk).kind(), BridgeKind::Qk);
        assert_eq!(bridge_for(BridgeKind::Uk).kind(), BridgeKind::Uk);
        assert_eq!(bridge_for(BridgeKind::K).kind(), BridgeKind::K);
    }
}
