#![warn(missing_docs)]
//! Portals 3.3 — the paper's core contribution.
//!
//! Portals (paper §3) provides **one-sided data movement** where, unlike
//! RDMA-style interfaces, "the target of a remote operation is not a
//! virtual address. Instead, the ultimate destination of a message is
//! determined at the receiving process by comparing contents of the
//! incoming message header with the contents of Portals structures at the
//! destination." Those structures are:
//!
//! * a **portal table** per network interface, indexed by the header's
//!   portal index;
//! * a list of **match entries** (ME) per portal table entry, each with
//!   64 match bits, 64 ignore bits and a source identifier (possibly
//!   wildcarded);
//! * a **memory descriptor** (MD) attached to each ME describing the
//!   memory region, accepted operations, threshold and truncation
//!   behaviour;
//! * **event queues** (EQ) into which completions are delivered.
//!
//! This crate is the *protocol logic only* — deterministic, synchronous,
//! and independent of the simulated platform. The NAL/bridge layers
//! (`xt3-nal`) move its commands and events across address spaces, and the
//! node model (`xt3-node`) assigns time costs to each step. Keeping the
//! library pure is faithful to the reference implementation's structure
//! (§3.1: one shared library under many NALs) and makes the matching
//! semantics directly property-testable.
//!
//! # Example: receiver-side matching in five calls
//!
//! ```
//! use xt3_portals::*;
//! use xt3_portals::library::WireData;
//!
//! // A process exposes 64 bytes on portal 4 for puts carrying bits 0x99.
//! let mut target = PortalsLib::new(ProcessId::new(1, 0), NiLimits::default());
//! let mut memory = FlatMemory::new(4096);
//! let eq = target.eq_alloc(8).unwrap();
//! let me = target
//!     .me_attach(4, ProcessId::any(), 0x99, 0, UnlinkOp::Retain, InsertPos::After)
//!     .unwrap();
//! target
//!     .md_attach(me, 4096, 0, 64, MdOptions::put_target(), Threshold::Infinite, Some(eq), 0)
//!     .unwrap();
//!
//! // An initiator builds a put header; the platform moves the bytes.
//! let mut initiator = PortalsLib::new(ProcessId::new(0, 0), NiLimits::default());
//! let md = initiator
//!     .md_bind(4096, 0, 5, MdOptions::default(), Threshold::Count(1), None, 0)
//!     .unwrap();
//! let header = initiator
//!     .put(md, AckReq::NoAck, ProcessId::new(1, 0), 4, 0, 0x99, 0, 0)
//!     .unwrap();
//!
//! // Target side: match the header, then deposit on completion.
//! let DeliverOutcome::Matched(ticket) = target.match_incoming(&header) else {
//!     panic!("must match");
//! };
//! target.complete_put(&header, &ticket, &WireData::Real(b"hello".as_slice().into()), &mut memory);
//! assert_eq!(memory.read(0, 5), b"hello");
//! assert_eq!(target.eq_get(eq).unwrap().kind, EventKind::PutStart);
//! assert_eq!(target.eq_get(eq).unwrap().kind, EventKind::PutEnd);
//! ```

pub mod acl;
pub mod event;
pub mod header;
pub mod library;
pub mod md;
pub mod me;
pub mod memory;
pub mod slab;
pub mod types;

pub use acl::AcEntry;
pub use event::{Event, EventKind, EventQueue};
pub use header::{AtomicOp, PortalsHeader, PortalsOp};
pub use library::{DeliverOutcome, IncomingAction, NiStatusRegister, PortalsLib};
pub use md::{Md, MdOptions, Threshold};
pub use me::{InsertPos, Me, UnlinkOp};
pub use memory::{FlatMemory, ProcessMemory};
pub use types::{
    AckReq, EqHandle, MatchBits, MdHandle, MeHandle, NiLimits, ProcessId, PtlError, PtlResult,
};
