#![warn(missing_docs)]
//! Deterministic discrete-event simulation (DES) engine.
//!
//! This crate is the foundation of the XT3/SeaStar reproduction: a virtual
//! clock with picosecond resolution, a stable-ordered event queue, a
//! deterministic pseudo-random number generator, and online statistics used
//! by every benchmark harness.
//!
//! The engine is intentionally minimal and fully deterministic: a single
//! thread, integer time, and FIFO tie-breaking for events scheduled at the
//! same instant. Running the same model with the same seed always produces
//! bit-identical traces, which the integration tests rely on.
//!
//! # Example
//!
//! ```
//! use xt3_sim::{Engine, EventQueue, Model, SimTime};
//!
//! struct Counter {
//!     fired: u32,
//! }
//!
//! impl Model for Counter {
//!     type Event = u32;
//!     fn dispatch(&mut self, now: SimTime, ev: u32, q: &mut EventQueue<u32>) {
//!         self.fired += ev;
//!         if ev < 4 {
//!             q.schedule_at(now + SimTime::from_ns(100), ev + 1);
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::new(Counter { fired: 0 });
//! engine.queue_mut().schedule_at(SimTime::ZERO, 1);
//! engine.run();
//! assert_eq!(engine.model().fired, 1 + 2 + 3 + 4);
//! assert_eq!(engine.now(), SimTime::from_ns(300));
//! ```

pub mod causal;
pub mod chain;
pub mod cursor;
pub mod digest;
pub mod engine;
pub mod faults;
pub mod label;
pub mod par;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use causal::{
    linkhop_info, linkhop_port, linkhop_stall, CausalError, CausalFolder, CausalLog, CausalRecord,
    CausalStage, Fate, Observation, Records, TraceId, Transit, HEAD, LINKHOP_STALL_MASK,
    MAX_CAUSAL_NODE,
};
pub use chain::{
    walk_one, Breakdown, Chain, ChainFold, CostClass, CritPathError, HopStall, Segment,
};
pub use cursor::BusyCursor;
pub use digest::{DigestLanes, EventDigest};
pub use engine::{Engine, Model, RunOutcome};
pub use faults::{FaultInjector, FaultPlan, FaultStats, FwFaultKind, PacketFate, TimeWindow};
pub use label::Label;
pub use par::{
    merge_ordered_runs, Delivery, ExecMode, ParConfig, ParOutcome, Partitioned, WindowDriver,
};
pub use queue::EventQueue;
pub use rng::SimRng;
pub use stats::{Histogram, OnlineStats, Series, SeriesPoint};
pub use time::{Bandwidth, SimTime};
pub use trace::{Trace, TraceCategory, TraceEvent};
