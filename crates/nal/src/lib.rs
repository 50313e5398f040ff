#![warn(missing_docs)]
//! The network abstraction layer (NAL) and Cray bridge layer.
//!
//! The reference Portals implementation runs one shared library under
//! per-platform NALs (paper §3.1). For the XT3, Cray added a **bridge**
//! layer on top of the NAL that "overrides the methods for moving data to
//! and from API and library-space, as well as the address validation and
//! translation routines" (§3.2), so all four node configurations share the
//! same library-to-network code:
//!
//! * [`bridge::QkBridge`] — Catamount compute-node applications. API calls
//!   trap into the quintessential kernel (~75 ns); application memory is
//!   *physically contiguous*, so one DMA command moves any buffer.
//! * [`bridge::UkBridge`] — Linux user-level applications. API calls make
//!   a Linux syscall; buffers live in 4 KB pages that must be pinned and
//!   translated page by page, and the host pre-computes the scatter/gather
//!   DMA command list (§3.3).
//! * [`bridge::KBridge`] — Linux kernel-level clients (the Lustre service
//!   path). No user/kernel crossing, but still paged memory.
//!
//! ukbridge and kbridge can coexist on one node sharing the network
//! interface (§3.2) — the `xt3-node` machine model exercises exactly that.
//!
//! [`addr`] provides the two address-space models the bridges translate
//! against.
//!
//! Below the bridges sits the SeaStar NAL (SSNAL, §3.3), which "implements
//! all of the entry-points required by a Portals NAL": `nal_send` starts an
//! outgoing message, `nal_recv` deposits an incoming message body, an
//! interrupt handler processes asynchronous SeaStar events, and address
//! validation and translation are delegated to the bridge. In this
//! reproduction those mechanics live in the node model (`xt3-node`), which
//! owns both the host and the firmware side.

pub mod addr;
pub mod bridge;

pub use addr::{AddressSpace, CatamountSpace, LinuxSpace, PAGE_SIZE};
pub use bridge::{Bridge, BridgeKind, KBridge, QkBridge, UkBridge};
