//! The BENCH gates: every committed `BENCH_*.json` is read here, and
//! every threshold a `--check` applies is named here.
//!
//! A [`Baseline`] is a committed file (or the `--out` file about to be
//! replaced, whose rows the new file carries as `before_*`); a row is
//! looked up by its key field. One `check_*` function per file holds
//! what that file's gate reads and the limits it applies, so
//! `tests/bench_cli.rs` can run all five against the committed files and
//! catch a renamed key in milliseconds instead of after a one-minute
//! measurement.

use xt3_telemetry::{parse_json, JsonValue};

/// Host throughput may fall to this fraction of the committed rate
/// before a gate trips: CI machines are noisy and heterogeneous, so the
/// floor catches a catastrophic slowdown (an accidental O(n^2), tracing
/// left on in the hot path), not run-to-run jitter.
pub const THROUGHPUT_FLOOR: f64 = 0.25;
/// Observed over plain wall time of the 512-node all-to-all. Measured on
/// the 2-core reference box: 2.4-2.6 with the ordered-map sink stores
/// this gate was introduced against, 1.4-1.5 without them.
pub const SINK_OVERHEAD_CEILING: f64 = 2.0;
/// 2 workers over serial wall time, at any size — the per-window
/// hand-off gate (a futex sleep and wake per worker per window ran a
/// 216-node slice 2-8x slower than serial; polling runs it 0.8-1.4x).
pub const TWO_WORKER_CEILING: f64 = 2.0;
/// Best >=2-worker speedup on a run at least the baseline's size: not
/// below serial, 2 % jitter allowed.
pub const PARALLEL_SPEEDUP_FLOOR: f64 = 0.98;
/// A simulated RMA latency may reach this multiple of the committed one
/// (pure headroom for deliberate model evolution: the numbers are
/// deterministic, and an accidental extra round trip lands well past it).
pub const RMA_LATENCY_CEILING: f64 = 2.0;
/// Allocator-exact heap numbers may exceed the committed ones by 2 %.
pub const HEAP_LIMIT: f64 = 1.02;
/// Heap a node may cost with the link series on, over the plain peak.
/// Measured 1,428 B (512 nodes), 1,431 (2,048) and 1,432 (10,368) on the
/// one-round neighbour push; the limit is the worst of them plus 5 %. In
/// bytes, not as a ratio of the plain peak, so that it does not move
/// when the plain node shrinks.
pub const SERIES_BYTES_PER_NODE: u64 = 1_503;

/// A parsed `BENCH_*.json`.
pub struct Baseline {
    path: String,
    doc: JsonValue,
}

/// The element of array `rows` whose `key` field is `id` — a string, or
/// a number as `Display` prints it.
pub fn find_row<'a>(rows: &'a JsonValue, key: &str, id: &str) -> Option<&'a JsonValue> {
    rows.as_array().ok()?.iter().find(|row| match row.get(key) {
        Ok(JsonValue::String(s)) => s == id,
        Ok(JsonValue::Number(n)) => n.to_string() == id,
        _ => false,
    })
}

impl Baseline {
    /// Read and parse `path`.
    pub fn load(path: &str) -> Result<Self, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline {path}: {e}"))?;
        let doc = parse_json(&text).map_err(|e| format!("baseline {path} is not JSON: {e}"))?;
        let path = path.to_string();
        Ok(Baseline { path, doc })
    }

    fn missing(&self, what: &str) -> String {
        format!("baseline {} has no {what} — regenerate it first", self.path)
    }

    /// The number at top-level `key`, or at `key.field` for `key`
    /// holding an object.
    pub fn number(&self, key: &str) -> Result<f64, String> {
        let mut value = Ok(&self.doc);
        for part in key.split('.') {
            value = value.and_then(|v| v.get(part));
        }
        value
            .and_then(JsonValue::as_f64)
            .map_err(|_| self.missing(key))
    }

    /// The row of top-level array `table` whose `key` field is `id`.
    pub fn row(&self, table: &str, key: &str, id: &str) -> Result<&JsonValue, String> {
        let rows = self.doc.get(table).map_err(|_| self.missing(table))?;
        find_row(rows, key, id).ok_or_else(|| self.missing(&format!("{table} row {id}")))
    }

    /// Every row of top-level array `table`.
    pub fn rows(&self, table: &str) -> Result<&[JsonValue], String> {
        let rows = self.doc.get(table).and_then(JsonValue::as_array);
        rows.map_err(|_| self.missing(table))
    }

    /// Number `field` of that row.
    pub fn row_number(&self, table: &str, key: &str, id: &str, field: &str) -> Result<f64, String> {
        let value = self.row(table, key, id)?.get(field);
        value
            .and_then(JsonValue::as_f64)
            .map_err(|_| self.missing(&format!("{field} in {table} row {id}")))
    }
}

/// `x` to three decimals, as `Display` prints it (no trailing zeros).
fn show(x: f64) -> f64 {
    (x * 1e3).round() / 1e3
}

/// `measured` must reach `fraction` of `reference`.
pub fn at_least(what: &str, measured: f64, reference: f64, fraction: f64) -> Result<(), String> {
    let floor = reference * fraction;
    let ok = measured >= floor;
    println!(
        "gate: {what} {} vs baseline {} (floor {}) {}",
        show(measured),
        show(reference),
        show(floor),
        if ok { "ok" } else { "VIOLATED" }
    );
    ok.then_some(())
        .ok_or_else(|| format!("{what} fell below {fraction} of the committed baseline"))
}

/// `measured` must not exceed `ceiling`; a NaN fails.
pub fn at_most(what: &str, measured: f64, ceiling: f64) -> Result<(), String> {
    let ok = measured <= ceiling;
    println!(
        "gate: {what} {} (ceiling {}) {}",
        show(measured),
        show(ceiling),
        if ok { "ok" } else { "VIOLATED" }
    );
    ok.then_some(())
        .ok_or_else(|| format!("{what} is over its ceiling of {}", show(ceiling)))
}

/// `BENCH_core.json`: the NetPIPE aggregate and each deep scenario
/// against its own row (their rates differ by an order of magnitude, so
/// one folded number would hide either side's regression), then this
/// run's own `sink_overhead`.
pub fn check_core(
    b: &Baseline,
    aggregate: f64,
    deep: &[(&str, f64)],
    sink_overhead: f64,
) -> Result<(), String> {
    let reference = b.number("aggregate_events_per_sec")?;
    at_least(
        "aggregate events/sec",
        aggregate,
        reference,
        THROUGHPUT_FLOOR,
    )?;
    for &(name, rate) in deep {
        let reference = b.row_number("scenarios", "name", name, "events_per_sec")?;
        at_least(
            &format!("{name} events/sec"),
            rate,
            reference,
            THROUGHPUT_FLOOR,
        )?;
    }
    at_most("sink_overhead", sink_overhead, SINK_OVERHEAD_CEILING)
}

/// `BENCH_parallel.json`: the throughput floor and the hand-off ceiling
/// at any size; on a run at least the baseline's size, the best run at
/// two or more workers not below serial — past that the window
/// protocol's overhead is no longer paying for itself. Smaller runs
/// report that ratio without being gated on it (at 6,144 events it falls
/// either side of 1.0 from one hour to the next on the same box).
pub fn check_parallel(
    b: &Baseline,
    nodes: u32,
    aggregate: f64,
    two_worker_ratio: f64,
    best_speedup: f64,
) -> Result<(), String> {
    let reference = b.number("aggregate_events_per_sec")?;
    at_least(
        "aggregate events/sec",
        aggregate,
        reference,
        THROUGHPUT_FLOOR,
    )?;
    at_most(
        "2-worker over serial wall time",
        two_worker_ratio,
        TWO_WORKER_CEILING,
    )?;
    if f64::from(nodes) < b.number("nodes")? {
        println!(
            "speedup: best >=2-worker run at {best_speedup:.2}x serial \
             (gated from the baseline's size up)"
        );
        return Ok(());
    }
    let what = "best >=2-worker speedup over serial";
    at_least(what, best_speedup, 1.0, PARALLEL_SPEEDUP_FLOOR)
}

/// `BENCH_rma.json`: every `(curve, size, latency_us)` point the
/// baseline shares must stay within [`RMA_LATENCY_CEILING`] of it.
/// Returns how many points were compared; none is an error.
pub fn check_rma(b: &Baseline, points: &[(&str, u64, f64)]) -> Result<usize, String> {
    let mut compared = 0;
    let mut worst: f64 = 0.0;
    for &(curve, size, latency) in points {
        let reference = b.row("curves", "name", curve).ok().and_then(|c| {
            let point = find_row(c.get("points").ok()?, "size", &size.to_string())?;
            point.get("latency_us").and_then(JsonValue::as_f64).ok()
        });
        let Some(reference) = reference else { continue };
        compared += 1;
        worst = worst.max(latency / reference);
        if latency > reference * RMA_LATENCY_CEILING {
            return Err(format!(
                "{curve} @ {size} B regressed: {latency:.3} us vs committed {reference:.3} us \
                 (> {RMA_LATENCY_CEILING}x)"
            ));
        }
    }
    if compared == 0 {
        return Err(b.missing("(curve, size) point this run shares"));
    }
    println!(
        "gate: {compared} points within {RMA_LATENCY_CEILING}x of the baseline \
         (worst ratio {worst:.2}) ok"
    );
    Ok(compared)
}

/// One allocator-exact count of a `mem_footprint` size row: node count of
/// the row, field name, value.
pub type MemCount = (usize, &'static str, u64);

/// `BENCH_mem.json`: every measured size's peak against [`HEAP_LIMIT`] x
/// the baseline's at the same node count, every number of the observed
/// row likewise, and every count (`node_bytes`, `live_blocks_per_node`:
/// small whole numbers, where 2 % is no room at all) against the
/// baseline's own, not one more. A row missing from the baseline is an
/// error: a silently skipped row would read as covered.
pub fn check_mem(
    b: &Baseline,
    peaks: &[(usize, u64)],
    counts: &[MemCount],
    observed: &[(&str, f64)],
) -> Result<(), String> {
    let limit = HEAP_LIMIT;
    let mut violated = Vec::new();
    for &(nodes, peak) in peaks {
        let base = b.row_number("sizes", "nodes", &nodes.to_string(), "peak_bytes")?;
        let what = format!("{nodes}-node peak bytes ({limit:.2}x baseline)");
        violated.extend(at_most(&what, peak as f64, base * limit).err());
    }
    for &(nodes, field, count) in counts {
        let base = b.row_number("sizes", "nodes", &nodes.to_string(), field)?;
        let what = format!("{nodes}-node {field} (the baseline's, exactly)");
        violated.extend(at_most(&what, count as f64, base).err());
    }
    for &(name, value) in observed {
        let base = b.number(&format!("observed.{name}"))?;
        let what = format!("observed {name} ({limit:.2}x baseline)");
        violated.extend(at_most(&what, value, base * limit).err());
    }
    match violated.is_empty() {
        true => Ok(()),
        false => Err(violated.join("\n")),
    }
}

/// `BENCH_mem.json` under `mem_footprint --series`: every size's peak
/// with the link series on against the baseline's plain peak at the same
/// node count plus [`SERIES_BYTES_PER_NODE`] a node.
pub fn check_series(b: &Baseline, peaks: &[(usize, u64)]) -> Result<(), String> {
    let mut violated = Vec::new();
    for &(nodes, peak) in peaks {
        let plain = b.row_number("sizes", "nodes", &nodes.to_string(), "peak_bytes")?;
        let ceiling = plain + (nodes as u64 * SERIES_BYTES_PER_NODE) as f64;
        let what =
            format!("{nodes}-node peak bytes with series (plain + {SERIES_BYTES_PER_NODE} B/node)");
        violated.extend(at_most(&what, peak as f64, ceiling).err());
    }
    match violated.is_empty() {
        true => Ok(()),
        false => Err(violated.join("\n")),
    }
}

/// `BENCH_congestion.json`: everything in it is simulation-deterministic,
/// so the file must equal `current` byte for byte. On drift, shows the
/// first line that moved — a pattern's whole row.
pub fn check_congestion(path: &str, current: &str) -> Result<(), String> {
    let committed =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"))?;
    if committed == current {
        println!("baseline check: {path} matches");
        return Ok(());
    }
    let mut lines = committed.lines().zip(current.lines());
    let (was, is) = lines.find(|(a, b)| a != b).unwrap_or(("", ""));
    Err(format!(
        "congestion baseline drift: {path} does not match the current sweep\n\
         committed: {was}\ncurrent:   {is}"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline(text: &str) -> Baseline {
        Baseline {
            path: "test.json".into(),
            doc: parse_json(text).expect("test document parses"),
        }
    }

    #[test]
    fn rows_are_found_by_string_or_number_key() {
        let b = baseline(
            r#"{"n": 4, "observed": {"spans": 7.5},
                "sizes": [{"nodes": 512, "peak_bytes": 10}, {"nodes": 2048, "peak_bytes": 20}],
                "sweep": [{"config": "par-2", "events_per_sec": 9}]}"#,
        );
        assert_eq!(b.number("n"), Ok(4.0));
        assert_eq!(b.number("observed.spans"), Ok(7.5));
        assert_eq!(
            b.row_number("sizes", "nodes", "2048", "peak_bytes"),
            Ok(20.0)
        );
        assert_eq!(
            b.row_number("sweep", "config", "par-2", "events_per_sec"),
            Ok(9.0)
        );
        for missing in [
            b.number("m"),
            b.number("observed.records"),
            b.row_number("sizes", "nodes", "64", "peak_bytes"),
            b.row_number("sweep", "config", "par-2", "wall_ms"),
        ] {
            assert!(missing.unwrap_err().contains("test.json"));
        }
    }

    #[test]
    fn floors_ceilings_and_nan() {
        assert!(at_least("x", 25.0, 100.0, THROUGHPUT_FLOOR).is_ok());
        assert!(at_least("x", 24.9, 100.0, THROUGHPUT_FLOOR).is_err());
        assert!(at_most("x", 2.0, TWO_WORKER_CEILING).is_ok());
        assert!(at_most("x", 2.01, TWO_WORKER_CEILING).is_err());
        assert!(at_most("x", f64::NAN, TWO_WORKER_CEILING).is_err());
    }

    #[test]
    fn mem_gate_reports_every_violation_and_refuses_a_missing_row() {
        let b = baseline(
            r#"{"sizes": [{"nodes": 512, "peak_bytes": 100, "node_bytes": 904}],
                "observed": {"spans": 10}}"#,
        );
        let fits = [(512, "node_bytes", 904)];
        assert!(check_mem(&b, &[(512, 102)], &fits, &[("spans", 10.2)]).is_ok());
        let grew = [(512, "node_bytes", 905)];
        let err = check_mem(&b, &[(512, 103)], &grew, &[("spans", 10.3)]);
        assert_eq!(err.unwrap_err().lines().count(), 3);
        assert!(check_mem(&b, &[(64, 1)], &[], &[]).is_err());
        let unknown = [(512, "live_blocks_per_node", 1)];
        assert!(check_mem(&b, &[], &unknown, &[]).is_err());
        assert!(check_mem(&b, &[], &[], &[("records", 1.0)]).is_err());
    }

    #[test]
    fn series_gate_is_bytes_a_node_over_the_plain_peak() {
        let b = baseline(r#"{"sizes": [{"nodes": 512, "peak_bytes": 1000000}]}"#);
        let room = 512 * SERIES_BYTES_PER_NODE;
        assert!(check_series(&b, &[(512, 1_000_000 + room)]).is_ok());
        assert!(check_series(&b, &[(512, 1_000_001 + room)]).is_err());
        assert!(check_series(&b, &[(64, 1)]).is_err(), "no such row");
    }

    #[test]
    fn rma_gate_needs_a_shared_point() {
        let b = baseline(
            r#"{"curves": [{"name": "rma-put", "points": [{"size": 1, "latency_us": 6.0}]}]}"#,
        );
        assert_eq!(
            check_rma(&b, &[("rma-put", 1, 11.9), ("rma-get", 1, 1.0)]),
            Ok(1)
        );
        assert!(check_rma(&b, &[("rma-put", 1, 12.1)]).is_err());
        assert!(check_rma(&b, &[("rma-put", 2, 1.0)]).is_err());
    }
}
