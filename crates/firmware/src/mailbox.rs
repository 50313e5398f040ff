//! Mailboxes: the host-to-firmware command interface.
//!
//! Paper §4.1 / Figure 2: each firmware-level process (the generic
//! Portals implementation in the kernel, plus each accelerated process)
//! owns a mailbox containing a command FIFO and a result FIFO. The host
//! posts commands by advancing the tail index; commands that return no
//! immediate result (like transmit) can be streamed without waiting.

use crate::pending::PendingId;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use xt3_portals::slab::fit_ring_by_use;
use xt3_seastar::dma::DmaList;

/// Commands the host pushes to the firmware (§4.3).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum FwCommand {
    /// Transmit the message described by a host-initialized pending.
    Transmit {
        /// Pending id from the host-managed TX pool.
        pending: PendingId,
        /// Destination node.
        target_node: u32,
        /// Payload length in bytes.
        length: u64,
        /// DMA command list (one entry for contiguous buffers; the host
        /// pre-computes the list for paged buffers, §3.3).
        dma: DmaList,
        /// Trace correlation tag.
        tag: u64,
    },
    /// Deposit a received message into the target buffer (generic mode:
    /// sent after host-side matching).
    RecvDeposit {
        /// The RX pending the header event named.
        pending: PendingId,
        /// Bytes to deposit.
        length: u64,
        /// Bytes to discard (truncated tail).
        drop_length: u64,
        /// DMA command list for the target buffer.
        dma: DmaList,
    },
    /// Discard a received message entirely (no match / permission
    /// violation): the firmware must still consume and drop the payload.
    RecvDiscard {
        /// The RX pending to drain and retire.
        pending: PendingId,
    },
    /// The host is done with an upper pending; return the pending to its
    /// free list.
    ReleasePending {
        /// Pending to release.
        pending: PendingId,
    },
}

/// Results the firmware pushes back for commands that return one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FwResult {
    /// Command accepted.
    Ok,
    /// Command referenced an invalid pending.
    BadPending,
}

/// Asynchronous events the firmware posts into a process's event queue
/// (§4.1: "message transmit complete", "message reception complete", plus
/// the header-arrival event that triggers generic-mode matching).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FwEvent {
    /// A transmit finished; the host may release the TX pending.
    TxComplete {
        /// The TX pending.
        pending: PendingId,
    },
    /// A new message header was copied into the upper pending; the host
    /// must perform Portals matching.
    RxHeader {
        /// The RX pending holding the header.
        pending: PendingId,
    },
    /// A reception finished depositing.
    RxComplete {
        /// The RX pending.
        pending: PendingId,
    },
}

/// A mailbox: bounded command and result FIFOs.
#[derive(Debug, Clone)]
pub struct Mailbox {
    cmd: VecDeque<FwCommand>,
    result: VecDeque<FwResult>,
    cmd_capacity: u32,
    /// Commands rejected because the FIFO was full.
    pub cmd_overflows: u64,
    cmd_high_water: u32,
}

impl Mailbox {
    /// A mailbox whose command FIFO holds `cmd_capacity` entries.
    pub fn new(cmd_capacity: u32) -> Self {
        Mailbox {
            // Grows to its observed depth on demand (`fit_ring_by_use`); the
            // modelled FIFO capacity is `cmd_capacity`, enforced by the
            // backlog accounting, not by the allocation.
            cmd: VecDeque::new(),
            result: VecDeque::new(),
            cmd_capacity,
            cmd_overflows: 0,
            cmd_high_water: 0,
        }
    }

    /// Host side: post a command.
    ///
    /// Returns the number of entries beyond capacity the host had to
    /// busy-wait behind (0 when the FIFO had room). The command always
    /// lands — §4.1: "the host busy-waits" rather than dropping; the
    /// caller charges the stall.
    pub fn post_cmd(&mut self, cmd: FwCommand) -> u32 {
        let backlog = (self.cmd.len() as u32).saturating_sub(self.cmd_capacity - 1);
        if backlog > 0 {
            self.cmd_overflows += 1;
        }
        let need = self.cmd.len() + 1;
        fit_ring_by_use(&mut self.cmd, need);
        self.cmd.push_back(cmd);
        self.cmd_high_water = self.cmd_high_water.max(self.cmd.len() as u32);
        backlog
    }

    /// Firmware side: take the next command.
    pub fn take_cmd(&mut self) -> Option<FwCommand> {
        self.cmd.pop_front()
    }

    /// Firmware side: post a result.
    pub fn post_result(&mut self, r: FwResult) {
        self.result.push_back(r);
    }

    /// Host side: take the next result (busy-waited on in the real
    /// system).
    pub fn take_result(&mut self) -> Option<FwResult> {
        self.result.pop_front()
    }

    /// Commands waiting.
    pub fn cmd_len(&self) -> u32 {
        self.cmd.len() as u32
    }

    /// Deepest the command FIFO has ever been.
    pub fn cmd_high_water(&self) -> u32 {
        self.cmd_high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tx(pending: u32) -> FwCommand {
        FwCommand::Transmit {
            pending,
            target_node: 1,
            length: 64,
            dma: DmaList::new(),
            tag: 0,
        }
    }

    #[test]
    fn commands_stream_fifo() {
        let mut m = Mailbox::new(4);
        assert_eq!(m.post_cmd(tx(0)), 0);
        assert_eq!(m.post_cmd(tx(1)), 0);
        assert_eq!(m.cmd_len(), 2);
        assert!(matches!(
            m.take_cmd(),
            Some(FwCommand::Transmit { pending: 0, .. })
        ));
        assert!(matches!(
            m.take_cmd(),
            Some(FwCommand::Transmit { pending: 1, .. })
        ));
        assert!(m.take_cmd().is_none());
    }

    #[test]
    fn full_fifo_stalls_and_counts() {
        let mut m = Mailbox::new(2);
        assert_eq!(m.post_cmd(tx(0)), 0);
        assert_eq!(m.post_cmd(tx(1)), 0);
        // Third post lands but reports the busy-wait depth.
        assert_eq!(m.post_cmd(tx(2)), 1);
        assert_eq!(m.cmd_overflows, 1);
        assert_eq!(m.cmd_len(), 3, "no command is ever dropped");
        m.take_cmd();
        m.take_cmd();
        assert_eq!(m.post_cmd(tx(3)), 0, "room after drain");
    }

    #[test]
    fn results_flow_back() {
        let mut m = Mailbox::new(2);
        assert!(m.take_result().is_none());
        m.post_result(FwResult::Ok);
        m.post_result(FwResult::BadPending);
        assert_eq!(m.take_result(), Some(FwResult::Ok));
        assert_eq!(m.take_result(), Some(FwResult::BadPending));
    }
}
