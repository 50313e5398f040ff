//! The concrete telemetry recorder: occupancy spans.
//!
//! Every count a run reports lives in the model that produces it (the
//! host's, the firmware's and the DMA engines' own counters, the mailbox
//! and EQ high-water marks); the recorder keeps the one thing the models
//! do not: each busy interval, for the timeline.
//!
//! Spans are the one store that grows with the run, so each is kept in 16
//! bytes (private `StoredSpan`): its start, its duration's low 32 bits,
//! and one word packing the low bits of its node, its component's track id
//! and its label — a `u16` into the recorder's own label table, found by
//! pointer and length (labels are literals). Whatever does not fit (a
//! span of 2^32 ps or more, or one ending before it starts; a node past
//! 2^20, a link port past 11, a label id past 255) keeps its high bits in
//! a side table by the `xt3_sim::narrow` rule, so [`Span`], what the
//! [`Spans`] view hands out by value, reads back exactly what was
//! recorded. The label ids are first-use order within one recorder and
//! never leave it: two recorders that met the same labels in a different
//! order still read back equal spans.

use crate::sink::{Component, TelemetrySink};
use xt3_sim::narrow::{join, split, Spill};
use xt3_sim::SimTime;

/// Default cap on stored occupancy spans. Beyond it new spans are counted
/// but not stored, bounding memory on long campaign runs.
const DEFAULT_SPAN_CAP: usize = 1 << 20;

/// One busy interval of one component on one node, as [`Spans`] hands it
/// out (the recorder keeps the packed 16-byte form).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Node the component belongs to.
    pub node: u32,
    /// Which serialized resource was busy.
    pub component: Component,
    /// What it was doing (interned label).
    pub label: &'static str,
    /// Busy-interval start.
    pub start: SimTime,
    /// Busy-interval end.
    pub end: SimTime,
}

/// A span as the recorder keeps it: `end - start` (wrapping) and the
/// fields of `word` are the low bits; the high bits, when any is set, are
/// the span's row in the recorder's spill, keyed by its position.
#[derive(Debug, Clone, Copy)]
struct StoredSpan {
    start: SimTime,
    duration: u32,
    /// `node << 12 | track id << 8 | label id`, each to its width.
    word: u32,
}

/// Widths of the fields of [`StoredSpan::word`], low to high.
const LABEL_BITS: u32 = 8;
const TRACK_BITS: u32 = 4;
const NODE_BITS: u32 = 32 - TRACK_BITS - LABEL_BITS;

/// A span's high bits: duration, node, track id, label id.
type SpanSpill = Spill<4>;

impl StoredSpan {
    /// A span packed, with the high bits its spill row must hold.
    fn pack(
        node: u32,
        component: Component,
        label: u16,
        start: SimTime,
        end: SimTime,
    ) -> (Self, [u32; 4]) {
        let (duration, duration_high) = split(end.ps().wrapping_sub(start.ps()), 32);
        let (node, node_high) = split(u64::from(node), NODE_BITS);
        let (track, track_high) = split(u64::from(component.track_id()), TRACK_BITS);
        let (label, label_high) = split(u64::from(label), LABEL_BITS);
        let word = (node << TRACK_BITS | track) << LABEL_BITS | label;
        let stored = StoredSpan {
            start,
            duration,
            word,
        };
        (stored, [duration_high, node_high, track_high, label_high])
    }

    /// The span back from the packed form and its spill row, its label
    /// resolved in `labels`.
    fn unpack(&self, high: [u32; 4], labels: &[&'static str]) -> Span {
        let field = |shift: u32, bits: u32| self.word >> shift & ((1 << bits) - 1);
        let duration = join(self.duration, high[0], 32);
        let node = join(
            field(TRACK_BITS + LABEL_BITS, NODE_BITS),
            high[1],
            NODE_BITS,
        );
        let track = join(field(LABEL_BITS, TRACK_BITS), high[2], TRACK_BITS);
        let label = join(field(0, LABEL_BITS), high[3], LABEL_BITS);
        Span {
            node: node as u32,
            component: Component::from_track_id(track as u32),
            // Ids are only ever minted by `label_id`, which entered the
            // label before returning its index.
            label: labels.get(label as usize).copied().unwrap_or(""),
            start: self.start,
            end: SimTime::from_ps(self.start.ps().wrapping_add(duration)),
        }
    }
}

/// The stored spans of a [`Telemetry`] recorder, in record order: a
/// borrowed view that unpacks each span and resolves its label as it is
/// read.
#[derive(Debug, Clone, Copy)]
pub struct Spans<'a> {
    stored: &'a [StoredSpan],
    spill: &'a SpanSpill,
    labels: &'a [&'static str],
}

impl<'a> Spans<'a> {
    /// Number of stored spans.
    pub fn len(&self) -> usize {
        self.stored.len()
    }

    /// Were no spans stored?
    pub fn is_empty(&self) -> bool {
        self.stored.is_empty()
    }

    /// Span `idx`, if stored.
    pub fn get(&self, idx: usize) -> Option<Span> {
        self.stored.get(idx).map(|s| self.view(idx, s))
    }

    /// Every span, in record order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Span> + 'a {
        let view = *self;
        let stored = view.stored.iter().enumerate();
        stored.map(move |(idx, s)| view.view(idx, s))
    }

    fn view(&self, idx: usize, s: &StoredSpan) -> Span {
        // Positions are below the span cap, which `span_slow` holds under
        // 2^32.
        s.unpack(self.spill.get(idx as u32), self.labels)
    }
}

/// The occupancy recorder.
///
/// Spans come out in record order, so every export is deterministic.
/// Disabled, every record call is a single predictable branch (the same
/// zero-cost pattern as `CausalLog::record`) and nothing is allocated.
#[derive(Debug)]
pub struct Telemetry {
    enabled: bool,
    span_cap: usize,
    spans: Vec<StoredSpan>,
    /// High bits of the spans that did not fit their packed fields.
    span_spill: SpanSpill,
    /// Span labels in first-use order; a stored span names one by index.
    labels: Vec<&'static str>,
    dropped_spans: u64,
}

impl Default for Telemetry {
    fn default() -> Self {
        Self::disabled()
    }
}

impl Telemetry {
    /// A recorder that records nothing until enabled.
    pub fn disabled() -> Self {
        Telemetry {
            enabled: false,
            span_cap: DEFAULT_SPAN_CAP,
            spans: Vec::new(),
            span_spill: SpanSpill::default(),
            labels: Vec::new(),
            dropped_spans: 0,
        }
    }

    /// An enabled recorder with the default span cap.
    pub fn enabled() -> Self {
        Self::new(true)
    }

    /// A recorder with the default span cap, recording or not as
    /// `enabled` says — for callers holding the choice as a flag.
    pub fn new(enabled: bool) -> Self {
        Telemetry {
            enabled,
            ..Self::disabled()
        }
    }

    /// An enabled recorder storing at most `span_cap` spans.
    pub fn with_span_cap(span_cap: usize) -> Self {
        Telemetry {
            enabled: true,
            span_cap,
            ..Self::disabled()
        }
    }

    /// Turn recording on or off (already-recorded data is kept).
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Recorded spans, in record order.
    pub fn spans(&self) -> Spans<'_> {
        Spans {
            stored: &self.spans,
            spill: &self.span_spill,
            labels: &self.labels,
        }
    }

    /// Spans dropped after the cap was reached.
    pub fn dropped_spans(&self) -> u64 {
        self.dropped_spans
    }
}

// The recording body is deliberately outlined (`#[inline(never)]`):
// only the `enabled` test inlines into the simulator's hot dispatch
// code, so the disabled path costs one predictable branch and no icache
// pressure from the store's machinery.
impl Telemetry {
    #[inline(never)]
    fn span_slow(
        &mut self,
        node: u32,
        component: Component,
        label: &'static str,
        start: SimTime,
        end: SimTime,
    ) {
        // A span's position keys its spill row: a `u32`.
        let room = self.spans.len() < self.span_cap.min(u32::MAX as usize);
        let Some(label) = room.then(|| self.label_id(label)).flatten() else {
            self.dropped_spans += 1;
            return;
        };
        let (stored, high) = StoredSpan::pack(node, component, label, start, end);
        self.span_spill.set(self.spans.len() as u32, high);
        self.spans.push(stored);
    }

    /// `label`'s index in the label table, entered on first use: found by
    /// pointer and length first (labels are literals), by content on a
    /// miss, so one label met at two addresses keeps one id. `None` once
    /// 65,536 distinct labels are held — a span that cannot name its
    /// label is dropped and counted, never given another's.
    fn label_id(&mut self, label: &'static str) -> Option<u16> {
        let held = &self.labels;
        let found = held
            .iter()
            .position(|&l| std::ptr::eq(l, label))
            .or_else(|| held.iter().position(|&l| l == label));
        let at = found.unwrap_or(held.len());
        let id = u16::try_from(at).ok()?;
        if found.is_none() {
            self.labels.push(label);
        }
        Some(id)
    }
}

impl TelemetrySink for Telemetry {
    #[inline]
    fn is_enabled(&self) -> bool {
        self.enabled
    }

    #[inline]
    fn span(
        &mut self,
        node: u32,
        component: Component,
        label: &'static str,
        start: SimTime,
        end: SimTime,
    ) {
        if self.enabled {
            self.span_slow(node, component, label, start, end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stored_span_is_sixteen_bytes() {
        // 2^20 of them are the default timeline: 16 MiB instead of the
        // 40 MiB of `Span`s (a 16-byte label and a 2-byte component
        // padded to 8). DESIGN.md §9 quotes this.
        assert_eq!(std::mem::size_of::<StoredSpan>(), 16);
        assert_eq!(std::mem::size_of::<Span>(), 40);
    }

    #[test]
    fn a_disabled_recorder_holds_no_heap() {
        let mut t = Telemetry::disabled();
        t.add(3, "c", 5);
        t.span(3, Component::Host, "x", SimTime::ZERO, SimTime::from_ns(1));
        assert_eq!(t.spans.capacity() + t.labels.capacity(), 0);
        assert!(t.span_spill.is_empty());
    }

    #[test]
    fn one_label_at_two_addresses_keeps_one_id() {
        let copy: &'static str = Box::leak(String::from("fw").into_boxed_str());
        assert!(!std::ptr::eq(copy, "fw"));
        let mut t = Telemetry::enabled();
        for label in ["fw", "host", copy, "fw"] {
            t.span(0, Component::Ppc, label, SimTime::ZERO, SimTime::NS);
        }
        assert_eq!(t.labels, ["fw", "host"]);
        let read: Vec<_> = t.spans().iter().map(|s| s.label).collect();
        assert_eq!(read, ["fw", "host", "fw", "fw"]);
    }

    #[test]
    fn a_span_past_the_label_table_is_dropped_not_mislabelled() {
        // The id is a u16. Fill the table (content is irrelevant to the
        // limit), then meet one label more.
        let mut t = Telemetry::enabled();
        t.labels = vec!["held"; usize::from(u16::MAX) + 1];
        t.span(0, Component::Host, "held", SimTime::ZERO, SimTime::NS);
        t.span(0, Component::Host, "one more", SimTime::ZERO, SimTime::NS);
        assert_eq!((t.spans().len(), t.dropped_spans()), (1, 1));
        assert_eq!(t.spans().get(0).unwrap().label, "held");
        assert_eq!(t.labels.len(), usize::from(u16::MAX) + 1);
    }

    #[test]
    fn disabled_recorder_stores_nothing() {
        let mut t = Telemetry::disabled();
        t.span(0, Component::Host, "x", SimTime::ZERO, SimTime::from_ns(1));
        assert!(t.spans().is_empty());
        assert_eq!(t.dropped_spans(), 0);
    }

    #[test]
    fn spans_respect_cap() {
        let mut t = Telemetry::with_span_cap(2);
        for i in 0..4u64 {
            t.span(
                0,
                Component::Ppc,
                "fw",
                SimTime::from_ns(i),
                SimTime::from_ns(i + 1),
            );
        }
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.dropped_spans(), 2);
        let ends: Vec<_> = t.spans().iter().map(|s| s.end).collect();
        assert_eq!(ends, [SimTime::from_ns(1), SimTime::from_ns(2)]);
    }
}
