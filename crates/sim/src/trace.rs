//! Lightweight event tracing.
//!
//! Models record significant protocol steps (command posted, interrupt
//! raised, DMA complete, ...) into a [`Trace`]. Tracing is used two ways:
//! the determinism integration test compares full traces across runs, and
//! the latency-breakdown tooling attributes time between consecutive steps
//! of one message's life.
//!
//! Recording is allocation-free: labels are compile-time interned
//! [`Label`]s (two words plus a pre-computed hash), and retention is a
//! ring buffer that keeps the most recent `capacity` events. The streaming
//! digest always covers *every* record made while enabled, so a capped
//! trace and an uncapped trace of the same run digest identically — the
//! cap bounds memory, not the determinism check.

use crate::engine::{fold_digest_lanes, DigestLane};
use crate::label::Label;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// Coarse category of a trace event, used for filtering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TraceCategory {
    /// Host CPU activity (traps, library processing, interrupt handlers).
    Host,
    /// Firmware activity on the embedded PowerPC.
    Firmware,
    /// DMA engine activity.
    Dma,
    /// Network fabric activity (injection, delivery, retries).
    Network,
    /// Portals library-level events (matching, EQ posts).
    Portals,
    /// MPI-layer events.
    Mpi,
    /// Application-level milestones.
    App,
}

impl fmt::Display for TraceCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TraceCategory::Host => "host",
            TraceCategory::Firmware => "fw",
            TraceCategory::Dma => "dma",
            TraceCategory::Network => "net",
            TraceCategory::Portals => "ptl",
            TraceCategory::Mpi => "mpi",
            TraceCategory::App => "app",
        };
        f.write_str(s)
    }
}

/// One recorded step.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// When it happened.
    pub at: SimTime,
    /// Which node it happened on.
    pub node: u32,
    /// Event category.
    pub category: TraceCategory,
    /// Interned step label (stable strings; compared across runs).
    pub label: Label,
    /// Message/connection correlation id, when applicable.
    pub tag: u64,
}

/// An append-only trace buffer. Disabled traces drop events at negligible
/// cost so production benchmark runs are unaffected.
#[derive(Debug, Default)]
pub struct Trace {
    enabled: bool,
    events: VecDeque<TraceEvent>,
    capacity: usize,
    recorded: u64,
    /// Per-node digest lanes (indexed by the recording node), combined in
    /// canonical order by [`Trace::digest`]. Lanes let a spatially
    /// partitioned run reproduce the serial trace digest by merging
    /// disjoint per-node streams.
    lanes: Vec<DigestLane>,
}

impl Trace {
    /// An enabled trace retaining at most the `capacity` most recent
    /// events (0 = unbounded).
    pub fn enabled(capacity: usize) -> Self {
        Self::new(true, capacity)
    }

    /// [`Trace::enabled`], or a disabled (no-op) trace, as `enabled`
    /// says — for callers holding the choice as a flag.
    pub fn new(enabled: bool, capacity: usize) -> Self {
        Trace {
            enabled,
            events: VecDeque::new(),
            capacity: if enabled { capacity } else { 0 },
            recorded: 0,
            lanes: Vec::new(),
        }
    }

    /// Is recording active?
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record an event (no-op when disabled). When the retention cap is
    /// reached the *oldest* event is evicted — the buffer keeps the tail
    /// of the stream, which is what post-mortem debugging wants. The
    /// digest is folded before eviction, so it covers the full stream.
    #[inline]
    pub fn record(
        &mut self,
        at: SimTime,
        node: u32,
        category: TraceCategory,
        label: Label,
        tag: u64,
    ) {
        if !self.enabled {
            return;
        }
        self.recorded += 1;
        let lane = node as usize;
        if lane >= self.lanes.len() {
            self.lanes
                .resize(lane + 1, (0, crate::digest::EventDigest::new()));
        }
        let (count, digest) = &mut self.lanes[lane];
        *count += 1;
        digest.write_u64(at.0);
        digest.write_u8(category as u8);
        digest.write_u64(label.id());
        digest.write_u64(tag);
        if self.capacity != 0 && self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(TraceEvent {
            at,
            node,
            category,
            label,
            tag,
        });
    }

    /// All retained events in order (the tail of the stream when capped).
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Total records made while enabled, including events the cap has
    /// since evicted.
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Streaming digest of every event recorded while enabled (time,
    /// category, label id, tag — folded into the recording node's lane,
    /// lanes combined in canonical node order), independent of the
    /// retention cap. Used by the replay-divergence audit to compare
    /// traced runs; a partitioned parallel run reproduces it by merging
    /// per-node lanes.
    pub fn digest(&self) -> u64 {
        fold_digest_lanes(&self.lanes)
    }

    /// Fold another trace's records into this one. Shard traces record
    /// disjoint node sets, so per-node lanes transfer wholesale; the
    /// retained rings are interleaved by time (stable: `self`'s events
    /// first at equal instants) and re-trimmed to this trace's cap.
    pub fn merge_from(&mut self, other: &Trace) {
        self.recorded += other.recorded;
        if other.lanes.len() > self.lanes.len() {
            self.lanes
                .resize(other.lanes.len(), (0, crate::digest::EventDigest::new()));
        }
        for (i, lane) in other.lanes.iter().enumerate() {
            if lane.0 > 0 {
                assert!(
                    self.lanes[i].0 == 0,
                    "trace lane {i} recorded on two shards"
                );
                self.lanes[i] = *lane;
            }
        }
        let mut merged: Vec<TraceEvent> = self.events.drain(..).collect();
        merged.extend(other.events.iter().copied());
        merged.sort_by_key(|e| e.at);
        let mut ring: VecDeque<TraceEvent> = merged.into();
        if self.capacity != 0 {
            while ring.len() > self.capacity {
                ring.pop_front();
            }
        }
        self.events = ring;
    }

    /// Render a human-readable dump (used by the latency-breakdown tools).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for e in &self.events {
            let _ = writeln!(
                out,
                "{:>14}  n{:<4} {:<4} #{:<6} {}",
                e.at.to_string(),
                e.node,
                e.category.to_string(),
                e.tag,
                e.label
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label;

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(false, 0);
        t.record(SimTime::ZERO, 0, TraceCategory::Host, label!("x"), 1);
        assert!(t.is_empty());
        assert_eq!(t.recorded(), 0);
        assert!(!t.is_enabled());
    }

    #[test]
    fn enabled_trace_records_in_order() {
        let mut t = Trace::enabled(0);
        t.record(SimTime::from_ns(1), 0, TraceCategory::Host, label!("a"), 7);
        t.record(
            SimTime::from_ns(2),
            1,
            TraceCategory::Network,
            label!("b"),
            7,
        );
        t.record(
            SimTime::from_ns(3),
            1,
            TraceCategory::Firmware,
            label!("c"),
            8,
        );
        assert_eq!(t.len(), 3);
        let labels: Vec<_> = t.events().map(|e| e.label.as_str()).collect();
        assert_eq!(labels, vec!["a", "b", "c"]);
    }

    #[test]
    fn capacity_keeps_the_tail() {
        let mut t = Trace::enabled(2);
        for i in 0..5 {
            t.record(SimTime::from_ns(i), 0, TraceCategory::App, label!("e"), i);
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.recorded(), 5);
        // The two *most recent* records survive.
        let tags: Vec<u64> = t.events().map(|e| e.tag).collect();
        assert_eq!(tags, vec![3, 4]);
    }

    #[test]
    fn capped_digest_matches_uncapped() {
        // The cap bounds retention only: a capped trace of the same
        // stream folds the same digest as an unbounded one.
        let mut capped = Trace::enabled(3);
        let mut uncapped = Trace::enabled(0);
        for i in 0..64 {
            let at = SimTime::from_ns(i * 5);
            let cat = if i % 2 == 0 {
                TraceCategory::Host
            } else {
                TraceCategory::Network
            };
            capped.record(at, (i % 4) as u32, cat, label!("step"), i);
            uncapped.record(at, (i % 4) as u32, cat, label!("step"), i);
        }
        assert_eq!(capped.len(), 3);
        assert_eq!(uncapped.len(), 64);
        assert_eq!(capped.digest(), uncapped.digest());
        assert_eq!(capped.recorded(), uncapped.recorded());
    }

    #[test]
    fn render_contains_labels() {
        let mut t = Trace::enabled(0);
        t.record(
            SimTime::from_us(5),
            3,
            TraceCategory::Dma,
            label!("tx-dma-done"),
            42,
        );
        let s = t.render();
        assert!(s.contains("tx-dma-done"));
        assert!(s.contains("n3"));
        assert!(s.contains("#42"));
    }
}
