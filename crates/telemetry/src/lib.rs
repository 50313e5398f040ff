#![warn(missing_docs)]
//! Cross-layer telemetry: occupancy timelines, the report of the models'
//! own counters, and Perfetto trace export.
//!
//! The paper's performance story (§5–§6) is an *accounting* story: generic
//! mode costs two host interrupts per message, the 12-byte header
//! piggyback saves one of them, and the latency/bandwidth gaps between the
//! curves come from host overhead and link occupancy. This crate gives the
//! simulator a first-class way to show that accounting instead of only the
//! end-to-end NetPIPE numbers.
//!
//! Three pieces:
//!
//! * [`TelemetrySink`] — the recording interface every layer writes
//!   through: one busy span at a time. The concrete [`Telemetry`]
//!   recorder is zero-cost when disabled (a single branch, same pattern
//!   as `CausalLog::record`).
//! * [`Telemetry`] — the registry: per-`(node, component)` occupancy
//!   spans and their label table. It keeps no counts; every count lives
//!   in the hardware model that produces it.
//! * Exporters — [`Telemetry::perfetto_json_full`] writes a Chrome
//!   trace-event / Perfetto JSON file (one track per component per node),
//!   and [`TelemetryReport`] — the models' counters, harvested on read —
//!   is the machine-readable summary the NetPIPE runner and bench
//!   campaign attach to their results.
//!
//! # Digest neutrality
//!
//! Telemetry is *observation only*: recording never schedules events,
//! never advances a cursor, never draws from an RNG, and the recorder is
//! deliberately excluded from `Model::state_fingerprint`. Every value it
//! stores is computed by the simulation whether or not the sink is
//! enabled (spans are the `(start, done)` pairs the busy-cursor model
//! already returns). The audit lockstep checker runs one engine with the
//! sink on and one with it off and requires identical digests, clocks and
//! state fingerprints at every step.

mod json;
mod perfetto;
mod registry;
mod report;
mod sink;

pub mod congestion;
pub mod critpath;
pub mod series;

pub use congestion::{attribute_occupancy, link_label, AttributionRow, CongestionTable};
pub use critpath::{
    aggregate, extract_chains, folded, Breakdown, Chain, ChainFold, CostClass, CritPathError,
    HopStall, Segment,
};
pub use json::{parse as parse_json, quote as quote_json, JsonValue, JsonWriter};
pub use registry::{Span, Spans, Telemetry};
pub use report::{DmaSummary, LinkSummary, NodeReport, SinkKept, TelemetryReport};
pub use series::{
    Hotspot, InjectBucket, InjectSeries, LinkBucket, LinkSeries, NodeSeries, Occupancies,
    Occupancy, SeriesConfig, SeriesSet,
};
pub use sink::{Component, TelemetrySink};
