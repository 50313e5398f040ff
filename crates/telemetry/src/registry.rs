//! The concrete telemetry recorder: counters, gauges, histograms, spans.
//!
//! A run uses fewer than twenty metric names on thousands of nodes, so
//! the store is a short name table with one dense per-node column behind
//! each counter and gauge name, and one histogram behind each histogram
//! name. A record call finds its name by pointer and length (metric names
//! are literals; the string compare runs only on a miss), then indexes the
//! column by node: O(1), with no allocation once the column reaches the
//! node. Each table is kept sorted by name, so walking nodes and then
//! names yields exactly the `(node, name)` order every export has always
//! had.
//!
//! Spans are the one store that grows with the run, so each is kept in 24
//! bytes (private `StoredSpan`): the label is a `u16` into the recorder's
//! own label table, found by pointer and length like a metric name, and
//! [`Span`] is what the [`Spans`] view hands out by value. Label ids are
//! first-use order within one recorder and never leave it: two recorders
//! that met the same labels in a different order still read back equal
//! spans.

use crate::sink::{Component, TelemetrySink};
use xt3_sim::{Histogram, SimTime};

/// Default cap on stored occupancy spans. Beyond it new spans are counted
/// but not stored, bounding memory on long campaign runs (counters,
/// gauges and histograms keep accumulating — only the timeline truncates).
const DEFAULT_SPAN_CAP: usize = 1 << 20;

/// One busy interval of one component on one node, as [`Spans`] hands it
/// out (the recorder keeps the packed 24-byte form).
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

/// A span as the recorder keeps it.
#[derive(Debug, Clone, Copy)]
struct StoredSpan {
    start: SimTime,
    end: SimTime,
    node: u32,
    component: Component,
    /// Index into the recorder's label table.
    label: u16,
}

/// The stored spans of a [`Telemetry`] recorder, in record order: a
/// borrowed view that resolves each span's label as it is read.
#[derive(Debug, Clone, Copy)]
pub struct Spans<'a> {
    stored: &'a [StoredSpan],
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
        self.stored.get(idx).map(|s| self.view(s))
    }

    /// Every span, in record order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = Span> + 'a {
        let view = *self;
        view.stored.iter().map(move |s| view.view(s))
    }

    fn view(&self, s: &StoredSpan) -> Span {
        Span {
            node: s.node,
            component: s.component,
            // Ids are only ever minted by `label_id`, which entered the
            // label before returning its index.
            label: self.labels.get(s.label as usize).copied().unwrap_or(""),
            start: s.start,
            end: s.end,
        }
    }
}

/// A name-sorted table of metrics.
type Named<T> = Vec<(&'static str, T)>;

/// Where `name` is in `table`, or where it would be inserted.
fn locate<T>(table: &[(&'static str, T)], name: &str) -> Result<usize, usize> {
    match table.iter().position(|&(held, _)| std::ptr::eq(held, name)) {
        Some(at) => Ok(at),
        None => table.binary_search_by(|&(held, _)| held.cmp(name)),
    }
}

/// `name`'s entry, entered with its default on first use.
fn entry<'a, T: Default>(table: &'a mut Named<T>, name: &'static str) -> &'a mut T {
    let at = locate(table, name).unwrap_or_else(|at| {
        table.insert(at, (name, T::default()));
        at
    });
    &mut table[at].1
}

/// One metric's values by node: `cells[node - base]`, `None` where the
/// node never recorded it (a recorded 0 is still listed). The column
/// starts at the first node written — a shard of the parallel engine
/// records only its own node range — and extends either way on demand.
#[derive(Debug, Default)]
struct Column {
    base: u32,
    cells: Vec<Option<u64>>,
}

impl Column {
    fn get(&self, node: u32) -> Option<u64> {
        let at = node.checked_sub(self.base)?;
        self.cells.get(at as usize).copied().flatten()
    }

    fn cell(&mut self, node: u32) -> &mut Option<u64> {
        if self.cells.is_empty() {
            self.base = node;
        }
        if node < self.base {
            // At least double the room below, so a descending stream of
            // nodes moves the column O(log n) times.
            let below = (self.base - node)
                .max(self.cells.len() as u32)
                .min(self.base);
            self.cells
                .splice(0..0, std::iter::repeat_n(None, below as usize));
            self.base -= below;
        }
        let at = (node - self.base) as usize;
        if self.cells.len() <= at {
            self.cells.resize(at + 1, None);
        }
        &mut self.cells[at]
    }
}

/// `node`'s value of metric `name` (0 if never recorded).
fn read(table: &Named<Column>, node: u32, name: &str) -> u64 {
    let column = locate(table, name).ok().map(|at| &table[at].1);
    column.and_then(|c| c.get(node)).unwrap_or(0)
}

/// Every `(node, name, value)` of `table`, ordered by node then name.
fn rows(table: &Named<Column>) -> impl Iterator<Item = (u32, &'static str, u64)> + '_ {
    let ends = table.iter().filter(|(_, c)| !c.cells.is_empty());
    let lo = ends.clone().map(|(_, c)| c.base).min().unwrap_or(1);
    let hi = ends
        .map(|(_, c)| c.base + (c.cells.len() - 1) as u32)
        .max()
        .unwrap_or(0);
    (lo..=hi).flat_map(move |node| {
        table
            .iter()
            .filter_map(move |(name, c)| c.get(node).map(|v| (node, *name, v)))
    })
}

/// The metrics registry and occupancy recorder.
///
/// Iteration — and therefore every export — is deterministic: counters
/// and gauges come out ordered by `(node, name)`, histograms by name.
/// Disabled, every record call is a single predictable branch (the same
/// zero-cost pattern as `Trace::record`) and nothing is allocated.
#[derive(Debug)]
pub struct Telemetry {
    enabled: bool,
    span_cap: usize,
    spans: Vec<StoredSpan>,
    /// Span labels in first-use order; a stored span names one by index.
    labels: Vec<&'static str>,
    dropped_spans: u64,
    counters: Named<Column>,
    gauges: Named<Column>,
    hists: Named<Histogram>,
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
            labels: Vec::new(),
            dropped_spans: 0,
            counters: Vec::new(),
            gauges: Vec::new(),
            hists: Vec::new(),
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
            labels: &self.labels,
        }
    }

    /// Spans dropped after the cap was reached.
    pub fn dropped_spans(&self) -> u64 {
        self.dropped_spans
    }

    /// Value of a per-node counter (0 if never touched).
    pub fn counter(&self, node: u32, name: &str) -> u64 {
        read(&self.counters, node, name)
    }

    /// Sum of a counter across all nodes.
    pub fn counter_total(&self, name: &str) -> u64 {
        locate(&self.counters, name).map_or(0, |at| {
            let cells = &self.counters[at].1.cells;
            cells.iter().flatten().sum()
        })
    }

    /// High-water mark of a per-node gauge (0 if never observed).
    pub fn gauge_high_water(&self, node: u32, name: &str) -> u64 {
        read(&self.gauges, node, name)
    }

    /// A latency histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        locate(&self.hists, name).ok().map(|at| &self.hists[at].1)
    }

    /// Iterate `(node, name, value)` over all counters.
    pub fn counters(&self) -> impl Iterator<Item = (u32, &'static str, u64)> + '_ {
        rows(&self.counters)
    }

    /// Iterate `(node, name, high_water)` over all gauges.
    pub fn gauges(&self) -> impl Iterator<Item = (u32, &'static str, u64)> + '_ {
        rows(&self.gauges)
    }

    /// Iterate `(name, histogram)` over all histograms.
    pub fn histograms(&self) -> impl Iterator<Item = (&'static str, &Histogram)> + '_ {
        self.hists.iter().map(|(k, h)| (*k, h))
    }

    /// Total busy time of `component` on `node` across recorded spans:
    /// one pass over them, O(spans) a call.
    pub fn busy_total(&self, node: u32, component: Component) -> SimTime {
        let mut total = SimTime::ZERO;
        for s in &self.spans {
            if s.node == node && s.component == component {
                total += s.end.saturating_sub(s.start);
            }
        }
        total
    }
}

// The recording bodies are deliberately outlined (`#[inline(never)]`):
// only the `enabled` test inlines into the simulator's hot dispatch
// code, so the disabled path costs one predictable branch and no icache
// pressure from the store's machinery.
impl Telemetry {
    #[inline(never)]
    fn add_slow(&mut self, node: u32, name: &'static str, delta: u64) {
        let cell = entry(&mut self.counters, name).cell(node);
        *cell = Some(cell.unwrap_or(0) + delta);
    }

    #[inline(never)]
    fn gauge_slow(&mut self, node: u32, name: &'static str, value: u64) {
        let cell = entry(&mut self.gauges, name).cell(node);
        *cell = Some(cell.unwrap_or(0).max(value));
    }

    #[inline(never)]
    fn sample_slow(&mut self, name: &'static str, value: SimTime) {
        entry(&mut self.hists, name).record(value.ps());
    }

    #[inline(never)]
    fn span_slow(
        &mut self,
        node: u32,
        component: Component,
        label: &'static str,
        start: SimTime,
        end: SimTime,
    ) {
        let room = self.spans.len() < self.span_cap;
        let Some(label) = room.then(|| self.label_id(label)).flatten() else {
            self.dropped_spans += 1;
            return;
        };
        self.spans.push(StoredSpan {
            start,
            end,
            node,
            component,
            label,
        });
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
    fn add(&mut self, node: u32, name: &'static str, delta: u64) {
        if self.enabled {
            self.add_slow(node, name, delta);
        }
    }

    #[inline]
    fn gauge(&mut self, node: u32, name: &'static str, value: u64) {
        if self.enabled {
            self.gauge_slow(node, name, value);
        }
    }

    #[inline]
    fn sample(&mut self, name: &'static str, value: SimTime) {
        if self.enabled {
            self.sample_slow(name, value);
        }
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
    fn stored_span_is_twenty_four_bytes() {
        // 2^20 of them are the default timeline: 24 MiB instead of the
        // 40 MiB of `Span`s (a 16-byte label and a 2-byte component
        // padded to 8). DESIGN.md §9 quotes this.
        assert_eq!(std::mem::size_of::<StoredSpan>(), 24);
        assert_eq!(std::mem::size_of::<Span>(), 40);
    }

    #[test]
    fn a_disabled_recorder_holds_no_heap() {
        let mut t = Telemetry::disabled();
        t.add(3, "c", 5);
        t.gauge(3, "g", 9);
        t.sample("h", SimTime::from_ns(10));
        t.span(3, Component::Host, "x", SimTime::ZERO, SimTime::from_ns(1));
        assert_eq!(t.spans.capacity() + t.labels.capacity(), 0);
        assert_eq!(t.counters.capacity() + t.gauges.capacity(), 0);
        assert_eq!(t.hists.capacity(), 0);
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
        t.add(0, "c", 5);
        t.gauge(0, "g", 9);
        t.sample("h", SimTime::from_ns(10));
        t.span(0, Component::Host, "x", SimTime::ZERO, SimTime::from_ns(1));
        assert_eq!(t.counter(0, "c"), 0);
        assert_eq!(t.gauge_high_water(0, "g"), 0);
        assert!(t.histogram("h").is_none());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn counters_accumulate_per_node() {
        let mut t = Telemetry::enabled();
        t.add(0, "ints", 1);
        t.add(0, "ints", 1);
        t.add(1, "ints", 3);
        assert_eq!(t.counter(0, "ints"), 2);
        assert_eq!(t.counter(1, "ints"), 3);
        assert_eq!(t.counter_total("ints"), 5);
        assert_eq!(t.counter(2, "ints"), 0);
    }

    #[test]
    fn gauges_keep_high_water() {
        let mut t = Telemetry::enabled();
        t.gauge(0, "depth", 3);
        t.gauge(0, "depth", 7);
        t.gauge(0, "depth", 2);
        assert_eq!(t.gauge_high_water(0, "depth"), 7);
    }

    #[test]
    fn histograms_record_picoseconds() {
        let mut t = Telemetry::enabled();
        t.sample("lat", SimTime::from_ns(2)); // 2000 ps
        t.sample("lat", SimTime::from_ns(2));
        let h = t.histogram("lat").expect("histogram exists");
        assert_eq!(h.count(), 2);
        assert_eq!(h.p50(), 1024, "2000 ps lands in the [1024,2048) bucket");
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
        assert_eq!(t.busy_total(0, Component::Ppc), SimTime::from_ns(2));
    }
}
