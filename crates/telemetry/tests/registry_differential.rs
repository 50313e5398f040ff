//! Differential test: the [`Telemetry`] registry's name-table × per-node
//! column store against the `BTreeMap<(node, name), u64>` maps it
//! replaced, kept here as the oracle.
//!
//! Random `add`/`gauge`/`sample`/`span` streams over 1, 2 and 600 nodes
//! and over a shard-style node range that starts at 5,000; every read
//! accessor and the full `(node, name)` iteration order must agree, span
//! cap and dropped-span count included.
//!
//! The oracle keeps whole [`Span`]s; the recorder keeps each in 24 bytes
//! with its label as an index into its own label table and resolves it
//! through the `spans()` view, so the same comparison also holds the
//! table: more labels than one byte counts, and two recorders that met
//! the labels in different orders.

use std::collections::BTreeMap;

use xt3_sim::{Histogram, SimRng, SimTime};
use xt3_telemetry::{Component, Span, Telemetry, TelemetrySink};

/// The replaced store.
#[derive(Default)]
struct Oracle {
    span_cap: usize,
    spans: Vec<Span>,
    dropped_spans: u64,
    counters: BTreeMap<(u32, &'static str), u64>,
    gauges: BTreeMap<(u32, &'static str), u64>,
    hists: BTreeMap<&'static str, Histogram>,
}

// Literal names, as every call site uses; `ALIAS` is "fw.eq_depth" at
// another address, which the pointer compare misses and the string
// compare must still find.
const NAMES: [&str; 9] = [
    "host.traps",
    "dma.transfers",
    "host.interrupts",
    "fw.eq_depth",
    "net.hol_stall",
    "a",
    "fw.mailbox_depth",
    "z.last",
    "ptl.eq_depth",
];
static ALIAS_BYTES: [u8; 11] = *b"fw.eq_depth";

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
        ..Oracle::default()
    };
    let width = u64::from(nodes.end - nodes.start);
    for op in 0..ops {
        let node = nodes.start + rng.below(width) as u32;
        let name = match rng.below(10) {
            0 => alias(),
            n => NAMES[n as usize - 1],
        };
        let value = rng.below(5) * rng.below(1000);
        match rng.below(4) {
            0 => {
                new.add(node, name, value);
                *old.counters.entry((node, name)).or_insert(0) += value;
            }
            1 => {
                new.gauge(node, name, value);
                let hwm = old.gauges.entry((node, name)).or_insert(0);
                *hwm = (*hwm).max(value);
            }
            2 => {
                new.sample(name, SimTime::from_ps(value));
                old.hists.entry(name).or_default().record(value);
            }
            _ => {
                let component = COMPONENTS[rng.below(6) as usize];
                let (start, end) = (SimTime::from_ns(op), SimTime::from_ns(op + value));
                new.span(node, component, name, start, end);
                if old.spans.len() >= old.span_cap {
                    old.dropped_spans += 1;
                } else {
                    old.spans.push(Span {
                        node,
                        component,
                        label: name,
                        start,
                        end,
                    });
                }
            }
        }
    }

    // Iteration: same rows in the same `(node, name)` order.
    let rows = |m: &BTreeMap<(u32, &'static str), u64>| -> Vec<(u32, &'static str, u64)> {
        m.iter().map(|(&(n, k), &v)| (n, k, v)).collect()
    };
    assert_eq!(new.counters().collect::<Vec<_>>(), rows(&old.counters));
    assert_eq!(new.gauges().collect::<Vec<_>>(), rows(&old.gauges));
    let hists = |h: &Histogram| (h.count(), h.iter_nonzero().collect::<Vec<_>>());
    assert_eq!(
        new.histograms()
            .map(|(k, h)| (k, hists(h)))
            .collect::<Vec<_>>(),
        old.hists
            .iter()
            .map(|(&k, h)| (k, hists(h)))
            .collect::<Vec<_>>()
    );

    // Point reads, hits and misses (a node outside the range, a name
    // never recorded, a name recorded only as the other kind).
    let probe_nodes = [nodes.start, nodes.end - 1, nodes.end, 0, u32::MAX];
    for name in NAMES.into_iter().chain([alias(), "never.recorded", ""]) {
        for node in probe_nodes {
            let want = old.counters.get(&(node, name)).copied().unwrap_or(0);
            assert_eq!(new.counter(node, name), want, "counter {node} {name}");
            let want = old.gauges.get(&(node, name)).copied().unwrap_or(0);
            assert_eq!(
                new.gauge_high_water(node, name),
                want,
                "gauge {node} {name}"
            );
        }
        let total: u64 = old
            .counters
            .iter()
            .filter(|((_, k), _)| *k == name)
            .map(|(_, v)| *v)
            .sum();
        assert_eq!(new.counter_total(name), total, "total {name}");
        assert_eq!(
            new.histogram(name).map(hists),
            old.hists.get(name).map(hists),
            "histogram {name}"
        );
    }

    // Spans: stored head, dropped tail, busy totals.
    assert_same_spans(&new, &old.spans);
    assert_eq!(new.dropped_spans(), old.dropped_spans);
    for node in probe_nodes {
        for component in COMPONENTS {
            let mut want = SimTime::ZERO;
            for s in &old.spans {
                if s.node == node && s.component == component {
                    want += s.end.saturating_sub(s.start);
                }
            }
            assert_eq!(new.busy_total(node, component), want);
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

#[test]
fn a_shard_range_costs_its_own_nodes_only() {
    // Descending nodes from 5,599: the columns must end up holding about
    // the range, not 5,600 cells each, and read back exactly.
    let mut t = Telemetry::enabled();
    for node in (5_000..5_600u32).rev() {
        t.add(node, "dma.transfers", u64::from(node));
    }
    assert_eq!(t.counters().count(), 600);
    assert_eq!(t.counter(5_000, "dma.transfers"), 5_000);
    assert_eq!(t.counter(4_999, "dma.transfers"), 0);
    assert_eq!(
        t.counters().next(),
        Some((5_000, "dma.transfers", 5_000)),
        "iteration starts at the lowest node written"
    );
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
