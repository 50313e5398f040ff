#![warn(missing_docs)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing)]
#![deny(clippy::panic, clippy::unreachable, clippy::unimplemented)]
//! The SeaStar network interface model.
//!
//! The Cray SeaStar ASIC (paper §2, Figure 1) integrates, on one chip:
//!
//! * independent **send and receive DMA engines** that move data between
//!   host memory and the network while packetizing into 64-byte packets;
//! * a **table-based router** for the 3-D torus (modeled in
//!   `xt3-topology`);
//! * a **HyperTransport cave** interfacing to the host Opteron (800 MHz HT,
//!   3.2 GB/s peak per direction, ~2.8 GB/s payload peak);
//! * an embedded dual-issue 500 MHz **PowerPC 440** with 384 KB of local
//!   scratch SRAM, responsible for programming the DMA engines and for
//!   whatever protocol work is offloaded.
//!
//! This crate models those resources as serialized cost-model components:
//!
//! * [`cost`] — the single source of truth for every timing constant, with
//!   the paper-calibrated preset;
//! * [`sram`] — the 384 KB local SRAM with region accounting (the paper's
//!   §4.2 occupancy formula is checked against this);
//! * [`dma`] — the TX/RX DMA engines;
//! * [`ht`] — the HyperTransport cave (transaction latencies, per-direction
//!   payload bandwidth, concurrency degradation);
//! * [`ppc`] — the embedded PowerPC's handler-cost accounting;
//! * [`chip`] — the assembled [`chip::SeaStar`].

pub mod chip;
pub mod cost;
pub mod dma;
pub mod ht;
pub mod ppc;
pub mod sram;

pub use chip::SeaStar;
pub use cost::CostModel;
pub use dma::{DmaEngine, DmaList};
pub use ht::HyperTransport;
pub use ppc::Ppc440;
pub use sram::{Sram, SramError, SramRegion};
