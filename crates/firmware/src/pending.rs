//! Lower pendings, and the link that threads them onto a source's RX
//! list.
//!
//! Paper §4.2 / Figure 3: each in-progress message is tracked by a
//! *pending*, split into a **lower** half in SeaStar SRAM (current state +
//! buffer info — everything the firmware needs to progress the message)
//! and a one-to-one mapped **upper** half in cached host memory (the
//! Portals header + other info — everything the host needs). The firmware
//! writes the upper pending but never reads it, because reads across
//! HyperTransport are high-latency round trips. The upper halves are the
//! node model's host-side records (`RxRecord` and `TxRecord` in
//! `xt3-node`), keyed by the same `(process, pending)` pair.

use crate::control::ProcIdx;
use serde::{Deserialize, Serialize};
use xt3_seastar::dma::DmaList;

/// Index of a pending within its process's pool. The wire protocol carries
/// these so completions can find their state without matching.
pub type PendingId = u32;

/// Progress state of a pending (the lower half's "current state").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum PendingState {
    /// Unused (on the free list).
    #[default]
    Free,
    /// Transmit: queued on the global TX pending list.
    TxQueued,
    /// Transmit: TX DMA programmed and streaming.
    TxActive,
    /// Receive: header seen, waiting for the host's deposit command
    /// (generic mode) or firmware matching (accelerated mode).
    RxHeaderPending,
    /// Receive: queued on its source's RX pending list.
    RxQueued,
    /// Receive: RX DMA depositing.
    RxActive,
    /// Complete; waiting for the host's release command.
    AwaitRelease,
}

/// One place on a source's RX pending list: a pending *of one
/// firmware-level process*. RX pools are per process, so a bare
/// [`PendingId`] names a different pending in each. Packed into one word
/// as `(process << 16 | pending) + 1`, so zero — the default — is
/// [`RxLink::END`], which ends a list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RxLink(u32);

impl RxLink {
    /// No pending: the link past a list's tail, and an empty list's head.
    pub const END: RxLink = RxLink(0);

    /// The link to `proc`'s `pending`; `None` when either does not fit
    /// its half — more processes or pendings than 384 KB of SRAM holds.
    pub fn new(proc: ProcIdx, pending: PendingId) -> Option<Self> {
        let (proc, pending) = (u16::try_from(proc).ok()?, u16::try_from(pending).ok()?);
        (u32::from(proc) << 16 | u32::from(pending))
            .checked_add(1)
            .map(RxLink)
    }

    /// The `(process, pending)` this link names; `None` for [`Self::END`].
    pub fn get(self) -> Option<(ProcIdx, PendingId)> {
        let packed = self.0.checked_sub(1)?;
        Some((packed >> 16, packed & 0xFFFF))
    }
}

/// The lower pending: SeaStar SRAM resident, and exactly the
/// [`LOWER_PENDING_BYTES`] the SRAM ledger charges for it.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LowerPending {
    /// Progress state.
    pub state: PendingState,
    /// Firmware-direct message (Reply/Ack): the buffer is already known,
    /// so completion bypasses host interrupts (the completion event is
    /// posted straight to the process-visible EQ).
    pub direct: bool,
    /// The peer's source structure, resolved once when the pending is
    /// initialized so later steps index the table instead of hashing
    /// `peer` again. `u16` ([`crate::source::NUM_SOURCES`] is 1,024) so it
    /// shares a word with `peer`, `state` and `direct`. [`NO_SOURCE`] when
    /// the pool had none to give.
    pub source: u16,
    /// Peer node id (destination for TX, source for RX).
    pub peer: u32,
    /// Payload bytes to move.
    pub length: u64,
    /// DMA command list (pre-computed by the host for non-contiguous
    /// buffers, generated by the firmware for contiguous ones).
    pub dma: DmaList,
    /// The pending behind this one on its source's RX list;
    /// [`RxLink::END`] at the tail.
    pub next: RxLink,
}

/// [`LowerPending::source`] of a pending whose peer has no source
/// structure (pool exhausted at transmit time).
pub const NO_SOURCE: u16 = u16::MAX;

/// Size charged against SRAM per lower pending, matching the §4.2
/// occupancy accounting. Not published; 64 bytes is consistent with the
/// paper's claim that, beyond the generic process's 1,274 pendings plus
/// 1,024 sources and the 22 KB firmware image, "several more similarly
/// sized pending pools can be supported" inside 384 KB.
pub const LOWER_PENDING_BYTES: u32 = 64;

#[cfg(test)]
mod tests {
    use super::*;
    use xt3_seastar::dma::DmaCommand;

    #[test]
    fn default_pending_is_free() {
        let p = LowerPending::default();
        assert_eq!(p.state, PendingState::Free);
        assert!(p.dma.is_empty());
        assert_eq!(p.next, RxLink::END);
    }

    #[test]
    fn a_lower_pending_is_what_the_ledger_charges() {
        // The host materializes one of these per in-flight message on
        // every node: a 512-node all-to-all holds ~0.26M at its peak.
        assert_eq!(
            std::mem::size_of::<LowerPending>(),
            LOWER_PENDING_BYTES as usize
        );
    }

    #[test]
    fn a_link_names_process_and_pending() {
        let link = RxLink::new(2, 767).unwrap();
        assert_eq!(link.get(), Some((2, 767)));
        assert_ne!(RxLink::new(1, 767), RxLink::new(0, 767));
        assert_eq!(RxLink::END.get(), None);
        assert_eq!(RxLink::new(0x1_0000, 0), None, "process past 16 bits");
        assert_eq!(RxLink::new(0, 0x1_0000), None, "pending past 16 bits");
        assert_eq!(
            RxLink::new(0xFFFF, 0xFFFE).unwrap().get(),
            Some((0xFFFF, 0xFFFE))
        );
        assert_eq!(RxLink::new(0xFFFF, 0xFFFF), None, "one past the word");
        assert_eq!(std::mem::size_of::<RxLink>(), 4);
    }

    #[test]
    fn state_transitions_are_plain_values() {
        let mut p = LowerPending {
            state: PendingState::TxQueued,
            peer: 7,
            length: 4096,
            dma: DmaList::one(DmaCommand {
                phys_addr: 0x1000,
                bytes: 4096,
            }),
            ..LowerPending::default()
        };
        p.state = PendingState::TxActive;
        assert_eq!(p.state, PendingState::TxActive);
        assert_eq!(p.dma[0].bytes, 4096);
    }
}
