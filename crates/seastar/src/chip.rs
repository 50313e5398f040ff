//! The assembled SeaStar chip: one per node.

use crate::dma::{DmaEngine, DmaKind};
use crate::ht::HyperTransport;
use crate::ppc::Ppc440;
use crate::sram::Sram;
use std::sync::Arc;

/// One SeaStar NIC instance (per node).
///
/// Owns the chip-level resources the firmware uses: the embedded PPC, both
/// DMA engines, the HyperTransport cave and the local SRAM. The firmware
/// logic itself lives in `xt3-firmware`; this struct is the "hardware" it
/// drives. What is the same on every chip of a machine is not in it: the
/// cost model is the machine's (`MachineConfig::cost`, passed to whatever
/// charges time), and the SRAM ledger is one per distinct firmware
/// layout, shared by every chip laid out that way.
#[derive(Debug)]
pub struct SeaStar {
    /// Embedded PowerPC 440.
    pub ppc: Ppc440,
    /// Transmit DMA engine.
    pub tx_dma: DmaEngine,
    /// Receive DMA engine.
    pub rx_dma: DmaEngine,
    /// HyperTransport cave.
    pub ht: HyperTransport,
    /// 384 KB local SRAM: the region ledger the firmware reserved its
    /// structures from at initialization, read-only from then on.
    pub sram: Arc<Sram>,
}

impl SeaStar {
    /// A fresh chip whose firmware laid its structures out in `sram`.
    pub fn new(sram: Arc<Sram>) -> Self {
        SeaStar {
            ppc: Ppc440::new(),
            tx_dma: DmaEngine::new(DmaKind::Tx),
            rx_dma: DmaEngine::new(DmaKind::Rx),
            ht: HyperTransport::new(),
            sram,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xt3_sim::SimTime;

    #[test]
    fn fresh_chip_is_idle() {
        let chip = SeaStar::new(Arc::default());
        assert_eq!(chip.ppc.free_at(), SimTime::ZERO);
        assert_eq!(chip.tx_dma.free_at(), SimTime::ZERO);
        assert_eq!(chip.rx_dma.free_at(), SimTime::ZERO);
        assert_eq!(chip.sram.used(), 0);
    }

    #[test]
    fn chips_of_one_layout_read_one_ledger() {
        let mut sram = Sram::default();
        sram.reserve("firmware image", 22 * 1024).unwrap();
        let sram = Arc::new(sram);
        let (a, b) = (SeaStar::new(sram.clone()), SeaStar::new(sram));
        assert!(Arc::ptr_eq(&a.sram, &b.sram));
        assert_eq!(b.sram.used(), 22 * 1024);
        assert_eq!(b.sram.regions().len(), 1);
    }
}
