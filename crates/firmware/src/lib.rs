#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![deny(clippy::panic, clippy::unreachable, clippy::unimplemented)]
//! The SeaStar Portals firmware (paper §4).
//!
//! This crate reimplements the C firmware the paper describes: the data
//! structures of §4.2 (Figure 3) and the processing of §4.3, as pure
//! state machines that return *effects* (DMA programs to run, events to
//! post, interrupts to raise, messages to emit). The node model in
//! `xt3-node` executes those effects against the simulated SeaStar chip
//! and assigns their time costs; this split keeps the firmware logic
//! independently testable, the same way the real firmware was debugged
//! apart from the hardware.
//!
//! Structures reproduced (§4.2):
//!
//! * one **NIC control block** with the global TX pending list and the
//!   source free list / hash;
//! * per firmware-level process: a **process structure**, an uncached
//!   **mailbox** (command + result FIFOs), an **event queue** the firmware
//!   posts into, and two pools of **pendings** (RX pool managed by the
//!   firmware, TX pool managed by the host);
//! * **sources**, one per peer node with traffic in flight, holding the
//!   per-source RX pending list (threaded through the lower pendings);
//!   allocated from a global pool of 1,024 and found through a hash table;
//! * **upper/lower pending** halves: lower in SeaStar SRAM (all state to
//!   progress the message), upper in host memory (everything the host
//!   needs — the firmware writes it, never reads it; the node model's
//!   receive and transmit records).
//!
//! Resource exhaustion: the paper's firmware panics the node (§4.3) and a
//! "simple go-back-n protocol" was in progress; [`gbn`] implements that
//! protocol, and the node model can run in either `Panic` or `GoBackN`
//! exhaustion policy for the `table exhaustion` experiment.

//! # Example: one transmit through the firmware
//!
//! ```
//! use xt3_firmware::*;
//! use xt3_seastar::sram::Sram;
//!
//! let mut sram = Sram::default();
//! let mut fw = Firmware::new(FwConfig::default(), &[FwMode::Generic], &mut sram).unwrap();
//!
//! // The host posts a transmit command into the mailbox...
//! let pending = fw.tx_base();
//! fw.mailbox_mut(0).unwrap().post_cmd(FwCommand::Transmit {
//!     pending,
//!     target_node: 3,
//!     length: 1024,
//!     dma: xt3_seastar::dma::DmaList::new(),
//!     tag: 0,
//! });
//! // ...the firmware's main loop picks it up and programs the TX DMA.
//! let cmd = fw.mailbox_mut(0).unwrap().take_cmd().unwrap();
//! let effects = fw.handle_command(0, cmd).unwrap();
//! assert_eq!(effects.as_slice(), &[FwEffect::StartTxDma { proc: 0, pending }]);
//!
//! // DMA completion posts the host event and raises the interrupt.
//! let effects = fw.tx_dma_complete().unwrap();
//! assert!(effects.contains(&FwEffect::RaiseInterrupt));
//! ```

pub mod control;
pub mod gbn;
pub mod mailbox;
pub mod pending;
pub mod pool;
pub mod source;

pub use control::{
    Effects, Firmware, FwConfig, FwCounters, FwEffect, FwError, FwLayout, FwMode, ProcIdx,
};
pub use gbn::{GbnEvent, GbnReceiver, GbnSender, SeqNo};
pub use mailbox::{FwCommand, FwEvent, Mailbox};
pub use pending::{LowerPending, PendingId, PendingState, RxLink};
pub use pool::Pool;
pub use source::{SourceId, SourceTable};
