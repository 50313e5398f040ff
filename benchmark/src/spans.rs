//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files only, around the
//! calls into each layer: `pass > build > run > slice* > verify >
//! postprocess`, plus one span per probe batch. Each span names its
//! parent and its pass, and carries the counts taken at its boundary, so
//! ratios are measured where the work happens. Nothing is written until
//! the benchmark ends.
//!
//! A span's *self time* is its duration minus the part its children
//! cover. Children are opened and closed strictly inside their parent and
//! never overlap, so over any subtree the self times sum to the root's
//! duration with zero residual — the discipline `telemetry::critpath`
//! applies to simulated time, applied here to host time.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-boundary name.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The pass this span belongs to (spans of one pass share it).
    pub pass: u32,
    /// Counts taken when the span closed.
    pub counters: Vec<(&'static str, u64)>,
}

impl Span {
    fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle to an open span (a no-op handle when tracing is off).
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<usize>);

/// The recorder. Disabled, every call is one branch.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    pass: u32,
}

impl Tracer {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            pass: 0,
        }
    }

    /// Is the traced run active?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Spans opened from now on belong to `pass`.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            pass: self.pass,
            counters: Vec::new(),
        });
        let idx = self.spans.len() - 1;
        self.stack.push(idx);
        SpanId(Some(idx))
    }

    /// Attach a count to an open span.
    pub fn counter(&mut self, id: SpanId, name: &'static str, value: u64) {
        if let Some(span) = id.0.and_then(|i| self.spans.get_mut(i)) {
            span.counters.push((name, value));
        }
    }

    /// Close `id`, which must be the innermost open span.
    pub fn close(&mut self, id: SpanId) {
        let Some(idx) = id.0 else { return };
        let now = self.now_ns();
        let top = self.stack.pop();
        assert_eq!(top, Some(idx), "spans close innermost first");
        self.spans[idx].end_ns = now;
    }

    /// Close every span still open (a pass that unwound mid-way).
    pub fn close_all(&mut self) {
        while let Some(&idx) = self.stack.last() {
            self.close(SpanId(Some(idx)));
        }
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: duration minus the children's durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p]
                .checked_sub(s.duration())
                .expect("children lie inside their parent");
        }
    }
    own
}

/// Per root span: its duration minus the self times of its whole subtree.
/// Zero for every root when spans nest properly.
pub fn residuals(spans: &[Span]) -> Vec<(usize, i128)> {
    let own = self_times(spans);
    let mut root_of: Vec<usize> = Vec::with_capacity(spans.len());
    for (i, s) in spans.iter().enumerate() {
        // A parent is always recorded before its children.
        root_of.push(s.parent.map_or(i, |p| root_of[p]));
    }
    let mut sums = vec![0i128; spans.len()];
    for (i, &t) in own.iter().enumerate() {
        sums[root_of[i]] += i128::from(t);
    }
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.parent.is_none())
        .map(|(i, s)| (i, i128::from(s.duration()) - sums[i]))
        .collect()
}

/// Render spans as one JSON document (`self_ns` included for reading).
pub fn to_json(workload: &str, spans: &[Span]) -> String {
    let own = self_times(spans);
    let mut s = String::new();
    let _ = writeln!(s, "{{\n  \"workload\": \"{workload}\",\n  \"spans\": [");
    for (i, span) in spans.iter().enumerate() {
        let parent = span
            .parent
            .map_or_else(|| String::from("null"), |p| p.to_string());
        let _ = write!(
            s,
            "    {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"parent\": {parent}, \"pass\": {}, \"counters\": {{",
            span.name, span.start_ns, span.end_ns, own[i], span.pass
        );
        for (k, (name, value)) in span.counters.iter().enumerate() {
            let comma = if k == 0 { "" } else { ", " };
            let _ = write!(s, "{comma}\"{name}\": {value}");
        }
        let comma = if i + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(s, "}}}}{comma}");
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns: start,
            end_ns: end,
            parent,
            pass: 0,
            counters: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // pass [0,100) > build [5,20), run [20,90) > slice [25,50), slice [50,85)
        let spans = vec![
            span(0, 100, None),
            span(5, 20, Some(0)),
            span(20, 90, Some(0)),
            span(25, 50, Some(2)),
            span(50, 85, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![15, 15, 10, 25, 35]);
        assert_eq!(residuals(&spans), vec![(0, 0)]);
    }

    #[test]
    fn recorded_passes_have_zero_residual() {
        let mut tr = Tracer::new(true);
        for pass in 0..3 {
            tr.set_pass(pass);
            let p = tr.open("pass");
            let b = tr.open("build");
            tr.close(b);
            let r = tr.open("run");
            for _ in 0..4 {
                let s = tr.open("slice");
                tr.counter(s, "events", 7);
                tr.close(s);
            }
            tr.close(r);
            tr.close(p);
        }
        let res = residuals(tr.spans());
        assert_eq!(res.len(), 3);
        assert!(res.iter().all(|&(_, r)| r == 0), "{res:?}");
        assert_eq!(tr.spans()[3].parent, Some(2));
        assert_eq!(tr.spans()[3].counters, vec![("events", 7)]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let id = tr.open("pass");
        tr.counter(id, "events", 1);
        tr.close(id);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn span_json_parses_back() {
        let mut tr = Tracer::new(true);
        let p = tr.open("pass");
        let r = tr.open("run");
        tr.counter(r, "events", 42);
        tr.close(r);
        tr.close(p);
        let doc = xt3_telemetry::parse_json(&to_json("w", tr.spans())).unwrap();
        let spans = doc.get("spans").unwrap().as_array().unwrap();
        assert_eq!(spans.len(), 2);
        let run = &spans[1];
        assert_eq!(run.get("parent").unwrap().as_u64().unwrap(), 0);
        let events = run.get("counters").unwrap().get("events").unwrap();
        assert_eq!(events.as_u64().unwrap(), 42);
    }
}
