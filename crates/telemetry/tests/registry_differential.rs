//! Differential test: the [`Telemetry`] registry's packed span store
//! against a plain `Vec<Span>`, kept here as the oracle.
//!
//! Random `span` streams over 1, 2 and 600 nodes and over a node range
//! that starts at 5,000; the `spans()` view must read back exactly what
//! the oracle kept, span cap, dropped-span count and busy totals
//! included.
//!
//! The oracle keeps whole [`Span`]s; the recorder keeps each in 16 bytes
//! — a duration's low 32 bits, and the low bits of node, track id and a
//! label index into its own label table in one word, with whatever does
//! not fit in a side table — and resolves it through the `spans()` view,
//! so the same comparison also holds the packing: spans of 2^32 ps and
//! longer or ending before they start, nodes past 2^20, every link port,
//! more labels than one byte counts, and two recorders that met the
//! labels in different orders.

use xt3_sim::{SimRng, SimTime};
use xt3_telemetry::{Component, Span, Telemetry, TelemetrySink};

/// The reference store: every span whole, in a plain list.
struct Oracle {
    span_cap: usize,
    spans: Vec<Span>,
    dropped_spans: u64,
}

// Literal labels, as every call site uses; `ALIAS` is "fw-rx-hdr" at
// another address, which the pointer compare misses and the string
// compare must still find.
const LABELS: [&str; 9] = [
    "trap",
    "tx-dma",
    "interrupt",
    "fw-rx-hdr",
    "link",
    "a",
    "rx-dma",
    "z.last",
    "cmd-post",
];
static ALIAS_BYTES: [u8; 9] = *b"fw-rx-hdr";

fn alias() -> &'static str {
    std::str::from_utf8(&ALIAS_BYTES).expect("ascii")
}

const COMPONENTS: [Component; 6] = [
    Component::Host,
    Component::Ppc,
    Component::TxDma,
    Component::RxDma,
    Component::Link(0),
    Component::Link(5),
];

/// Total busy time of `component` on `node` across `spans`.
fn busy_total(spans: impl Iterator<Item = Span>, node: u32, component: Component) -> SimTime {
    let mut total = SimTime::ZERO;
    for s in spans {
        if s.node == node && s.component == component {
            total += s.end.saturating_sub(s.start);
        }
    }
    total
}

/// The recorder's view resolves to exactly the spans the oracle kept.
fn assert_same_spans(new: &Telemetry, want: &[Span]) {
    let view = new.spans();
    assert_eq!(view.len(), want.len());
    assert_eq!(view.is_empty(), want.is_empty());
    assert_eq!(view.iter().collect::<Vec<_>>(), want);
    assert_eq!(view.get(view.len()), None);
    if let Some(last) = view.len().checked_sub(1) {
        assert_eq!(view.get(last), want.last().copied());
    }
}

fn drive(seed: u64, nodes: std::ops::Range<u32>, span_cap: usize, ops: u64) {
    let mut rng = SimRng::new(seed);
    let mut new = Telemetry::with_span_cap(span_cap);
    let mut old = Oracle {
        span_cap,
        spans: Vec::new(),
        dropped_spans: 0,
    };
    let width = u64::from(nodes.end - nodes.start);
    for op in 0..ops {
        let node = nodes.start + rng.below(width) as u32;
        let label = match rng.below(10) {
            0 => alias(),
            n => LABELS[n as usize - 1],
        };
        let value = rng.below(5) * rng.below(1000);
        let component = COMPONENTS[rng.below(6) as usize];
        let (start, end) = (SimTime::from_ns(op), SimTime::from_ns(op + value));
        new.span(node, component, label, start, end);
        if old.spans.len() >= old.span_cap {
            old.dropped_spans += 1;
        } else {
            old.spans.push(Span {
                node,
                component,
                label,
                start,
                end,
            });
        }
    }

    // Stored head, dropped tail, busy totals at nodes in and out of the
    // range.
    assert_same_spans(&new, &old.spans);
    assert_eq!(new.dropped_spans(), old.dropped_spans);
    let probe_nodes = [nodes.start, nodes.end - 1, nodes.end, 0, u32::MAX];
    for node in probe_nodes {
        for component in COMPONENTS {
            let want = busy_total(old.spans.iter().copied(), node, component);
            assert_eq!(busy_total(new.spans().iter(), node, component), want);
        }
    }
}

#[test]
fn registry_matches_map_reference() {
    for (i, nodes) in [0..1, 0..2, 0..600, 5_000..5_600, 7..8]
        .into_iter()
        .enumerate()
    {
        for (j, span_cap) in [0, 50, usize::MAX].into_iter().enumerate() {
            drive(0x7E1E + (i * 3 + j) as u64, nodes.clone(), span_cap, 6_000);
        }
    }
}

/// `n` distinct labels that are not literals.
fn minted_labels(n: usize) -> Vec<&'static str> {
    (0..n)
        .map(|i| &*Box::leak(format!("handler-{i}").into_boxed_str()))
        .collect()
}

#[test]
fn a_label_table_past_256_labels_reads_back_exactly() {
    let labels = minted_labels(300);
    let mut rng = SimRng::new(0x1ABE1);
    let mut new = Telemetry::enabled();
    let mut want = Vec::new();
    for op in 0..5_000u64 {
        // Every label once in order, then at random: ids 256.. are in use
        // from op 256 on.
        let pick = if op < 300 { op } else { rng.below(300) };
        let span = Span {
            node: rng.below(8) as u32,
            component: COMPONENTS[rng.below(6) as usize],
            label: labels[pick as usize],
            start: SimTime::from_ns(op),
            end: SimTime::from_ns(op + rng.below(50)),
        };
        new.span(span.node, span.component, span.label, span.start, span.end);
        want.push(span);
    }
    assert_same_spans(&new, &want);
    assert_eq!(new.dropped_spans(), 0);
}

#[test]
fn label_ids_are_remapped_by_content_across_a_shard_merge() {
    // Two shard recorders meet the same labels in opposite orders, so the
    // same label has a different id in each. Nothing merges recorders by
    // id: a merge replays one recorder's `spans()` view into another, and
    // the label travels as the string it is.
    let labels = minted_labels(40);
    let record = |t: &mut Telemetry, oracle: &mut Vec<Span>, node: u32, label: &'static str| {
        let span = Span {
            node,
            component: Component::Ppc,
            label,
            start: SimTime::from_ns(u64::from(node)),
            end: SimTime::from_ns(u64::from(node) + 7),
        };
        t.span(span.node, span.component, span.label, span.start, span.end);
        oracle.push(span);
    };
    let (mut low, mut high) = (Telemetry::enabled(), Telemetry::enabled());
    let (mut want_low, mut want_high) = (Vec::new(), Vec::new());
    for (i, &label) in labels.iter().enumerate() {
        record(&mut low, &mut want_low, i as u32, label);
    }
    for (i, &label) in labels.iter().rev().enumerate() {
        record(&mut high, &mut want_high, 100 + i as u32, label);
    }
    assert_same_spans(&low, &want_low);
    assert_same_spans(&high, &want_high);

    let mut merged = Telemetry::enabled();
    for shard in [&high, &low] {
        for s in shard.spans().iter() {
            merged.span(s.node, s.component, s.label, s.start, s.end);
        }
    }
    want_high.extend(want_low);
    assert_same_spans(&merged, &want_high);
}

#[test]
fn spans_past_every_packed_range_read_back_exactly() {
    // Each field at, below and past the width the recorder packs it in:
    // durations around 2^32 ps and ends before starts, nodes around 2^20,
    // every link port (track ids past 15 spill), and 300 labels — drawn
    // at random so packed and spilled spans interleave, with spans that
    // fit between them.
    const TWO_32: u64 = 1 << 32;
    let durations = [
        0,
        1,
        TWO_32 - 1,
        TWO_32,
        TWO_32 + 1,
        3 * TWO_32 + 7,
        u64::MAX / 2,
    ];
    let nodes = [
        0,
        7,
        (1 << 20) - 1,
        1 << 20,
        (1 << 20) + 1,
        1 << 31,
        u32::MAX,
    ];
    let labels = minted_labels(300);
    let mut rng = SimRng::new(0xB0DE);
    for span_cap in [usize::MAX, 700] {
        let mut new = Telemetry::with_span_cap(span_cap);
        let mut want = Vec::new();
        for op in 0..2_000u64 {
            let start = SimTime::from_ps(rng.below(1 << 50));
            let end = match rng.below(8) {
                0 => SimTime::from_ps(start.ps().saturating_sub(1 + rng.below(TWO_32 * 2))),
                1..=3 => start + SimTime::from_ps(durations[rng.below(7) as usize]),
                _ => start + SimTime::from_ps(rng.below(1 << 20)),
            };
            let node = match rng.below(2) {
                0 => nodes[rng.below(7) as usize],
                _ => rng.below(64) as u32,
            };
            let component = match rng.below(3) {
                0 => COMPONENTS[rng.below(4) as usize],
                _ => Component::Link(rng.below(256) as u8),
            };
            // Every label in order first, so ids past 255 are in use.
            let label = labels[if op < 300 { op } else { rng.below(300) } as usize];
            let span = Span {
                node,
                component,
                label,
                start,
                end,
            };
            new.span(node, component, label, start, end);
            if want.len() < span_cap {
                want.push(span);
            }
        }
        assert_same_spans(&new, &want);
        for (idx, span) in want.iter().enumerate().step_by(37) {
            assert_eq!(new.spans().get(idx), Some(*span), "span {idx}");
        }
        let dropped = 2_000 - want.len() as u64;
        assert_eq!(new.dropped_spans(), dropped);
        for node in nodes {
            for port in [0, 5, 11, 12, 255] {
                let link = Component::Link(port);
                let wide = busy_total(want.iter().copied(), node, link);
                assert_eq!(busy_total(new.spans().iter(), node, link), wide);
            }
        }
    }
}
