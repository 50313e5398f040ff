#![warn(missing_docs)]
//! The NetPIPE-style benchmark harness (paper §5.2).
//!
//! The paper measures Portals and MPI with NetPIPE 3.6.2 plus a custom
//! Portals module: "This module creates a memory descriptor for receiving
//! messages on a Portal with a single match entry attached. The memory
//! descriptor is created once for each round of messages that are
//! exchanged, so the setup overhead ... is not included in the
//! measurement. ... NetPIPE varies the message size interval and number
//! of iterations ... NetPIPE also provides a performance test for
//! streaming messages as well as the traditional ping-pong message
//! pattern. The Portals module ... allows for testing put operations and
//! get operations for both uni-directional and bi-directional tests and
//! for uni-directional streaming tests."
//!
//! This crate reproduces that harness:
//!
//! * [`schedule`] — the perturbed message-size schedule and per-size
//!   repetition counts;
//! * [`measure`] — the round ledger every driver keeps: the schedule
//!   cursor, the round clocks, the stream pump and the [`RoundResult`]
//!   each pattern records (the conventions below), plus the payload fill;
//! * [`ptl`] — Portals-level drivers (put/get ping-pong, streaming,
//!   bidirectional), each rebuilding its MDs per round exactly as the
//!   paper's module does;
//! * [`mpi`] — the MPI drivers over `xt3-mpi` (ping-pong, streaming,
//!   bidirectional) for both personalities;
//! * [`rma`] — the MPI-3 one-sided drivers (put/get/accumulate
//!   ping-pong, streaming, bidirectional over windows) plus the
//!   RMA-native DHT and window-halo workloads;
//! * [`report`] — result containers, series construction, ASCII figure
//!   rendering, and JSON export;
//! * [`mod@reference`] — the paper's published anchor values (Figures 4–7);
//! * [`runner`] — machine assembly, and one run path
//!   ([`runner::finish`]) for every pair.
//!
//! Measurement conventions (kept once, in [`measure::Record`]):
//!
//! * **ping-pong put**: one iteration = ping + pong; reported latency is
//!   round-trip/2, bandwidth is `size / latency`;
//! * **ping-pong get**: a get is inherently a round trip; one iteration =
//!   one get, reported latency is the full get time, bandwidth is
//!   `size / latency` (this is the convention under which the paper's
//!   5.39 µs put vs 6.60 µs get coexist with Fig. 5's nearly-identical
//!   large-message bandwidths);
//! * **streaming**: measured at the receiver across the round; latency is
//!   time-per-message, bandwidth is `size / latency`;
//! * **bidirectional**: both directions run ping-pong simultaneously;
//!   reported bandwidth is the aggregate `2 * size / iteration-time`.

pub mod measure;
pub mod mpi;
pub mod ptl;
pub mod reference;
pub mod report;
pub mod rma;
pub mod runner;
pub mod schedule;

pub use report::{FigureData, RoundResult, Series};
pub use runner::{NetpipeConfig, TestKind, Transport};
pub use schedule::{Schedule, SizePoint};
