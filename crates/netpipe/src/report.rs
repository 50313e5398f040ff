//! Result containers and figure rendering.

use serde::{Deserialize, Serialize};
use xt3_sim::SimTime;
use xt3_telemetry::{parse_json, quote_json};

pub use xt3_sim::stats::Series;

/// One completed round: `messages` transfers of `size` bytes in
/// `elapsed`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct RoundResult {
    /// Message size in bytes.
    pub size: u64,
    /// Messages counted in `elapsed` (for ping-pong puts this counts
    /// one-way messages, i.e. `2 * reps`).
    pub messages: u32,
    /// Total measured time.
    pub elapsed: SimTime,
    /// Bandwidth multiplier: 1 for uni-directional tests, 2 for
    /// bidirectional aggregate.
    pub bw_factor: u32,
}

impl RoundResult {
    /// Reported latency: time per message.
    pub fn latency(&self) -> SimTime {
        self.elapsed / self.messages as u64
    }

    /// Reported latency in microseconds (the paper's Fig. 4 unit).
    pub fn latency_us(&self) -> f64 {
        self.latency().as_us_f64()
    }

    /// Reported bandwidth in MB/s (the paper's Figs. 5–7 unit).
    pub fn bandwidth_mb(&self) -> f64 {
        let bytes = self.size as f64 * self.messages as f64 * self.bw_factor as f64;
        bytes / self.elapsed.as_secs_f64() / 1e6
    }
}

/// Per-message latency percentiles over a set of rounds, in nanoseconds.
/// Each round contributes its per-message latency once per message, so
/// sizes with more iterations weigh proportionally more — the same
/// weighting NetPIPE's aggregate timing applies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyPercentiles {
    /// Median per-message latency (ns, log-bucket lower bound).
    pub p50_ns: u64,
    /// 95th percentile (ns).
    pub p95_ns: u64,
    /// 99th percentile (ns).
    pub p99_ns: u64,
    /// Messages counted.
    pub messages: u64,
}

impl LatencyPercentiles {
    /// Compute from round results via the sim log-bucketed histogram.
    pub fn from_rounds(rounds: &[RoundResult]) -> Self {
        let mut h = xt3_sim::stats::Histogram::new();
        let mut messages = 0u64;
        for r in rounds {
            let lat_ns = r.latency().ps() / 1000;
            for _ in 0..r.messages {
                h.record(lat_ns);
            }
            messages += r.messages as u64;
        }
        LatencyPercentiles {
            p50_ns: h.p50(),
            p95_ns: h.p95(),
            p99_ns: h.p99(),
            messages,
        }
    }

    /// One-line human summary (µs units, matching the paper's figures).
    pub fn render(&self) -> String {
        format!(
            "latency p50 ~{:.1} µs, p95 ~{:.1} µs, p99 ~{:.1} µs over {} messages",
            self.p50_ns as f64 / 1000.0,
            self.p95_ns as f64 / 1000.0,
            self.p99_ns as f64 / 1000.0,
            self.messages
        )
    }
}

/// Build a latency series (µs vs bytes) from round results.
pub fn latency_series(label: &str, rounds: &[RoundResult]) -> Series {
    let mut s = Series::new(label);
    for r in rounds {
        s.push(r.size as f64, r.latency_us());
    }
    s
}

/// Build a bandwidth series (MB/s vs bytes) from round results.
pub fn bandwidth_series(label: &str, rounds: &[RoundResult]) -> Series {
    let mut s = Series::new(label);
    for r in rounds {
        s.push(r.size as f64, r.bandwidth_mb());
    }
    s
}

/// One figure: several curves plus axis labels.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FigureData {
    /// Figure title (e.g. "Figure 4. Latency performance").
    pub title: String,
    /// Y-axis label.
    pub y_label: String,
    /// Curves.
    pub series: Vec<Series>,
}

impl FigureData {
    /// Render as an ASCII plot with a logarithmic X axis, mirroring the
    /// paper's figures closely enough to eyeball shapes.
    pub fn render_ascii(&self, width: usize, height: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);

        let (mut x_min, mut x_max) = (f64::INFINITY, f64::NEG_INFINITY);
        let (y_min, mut y_max) = (0.0f64, f64::NEG_INFINITY);
        for s in &self.series {
            for p in &s.points {
                x_min = x_min.min(p.x.max(1.0));
                x_max = x_max.max(p.x);
                y_max = y_max.max(p.y);
            }
        }
        if !x_min.is_finite() || !y_max.is_finite() || y_max <= 0.0 {
            let _ = writeln!(out, "(no data)");
            return out;
        }
        y_max *= 1.05;
        let lx_min = x_min.ln();
        let lx_max = x_max.max(x_min * 2.0).ln();

        let marks = ['*', '+', 'x', 'o', '#', '@'];
        let mut grid = vec![vec![' '; width]; height];
        for (si, s) in self.series.iter().enumerate() {
            let mark = marks[si % marks.len()];
            for p in &s.points {
                let fx = (p.x.max(1.0).ln() - lx_min) / (lx_max - lx_min);
                let fy = (p.y - y_min) / (y_max - y_min);
                let col = ((fx * (width - 1) as f64).round() as usize).min(width - 1);
                let row =
                    height - 1 - ((fy * (height - 1) as f64).round() as usize).min(height - 1);
                grid[row][col] = mark;
            }
        }
        for (i, row) in grid.iter().enumerate() {
            let y_val = y_max - (i as f64 / (height - 1) as f64) * (y_max - y_min);
            let line: String = row.iter().collect();
            let _ = writeln!(out, "{y_val:>10.2} |{line}");
        }
        let _ = writeln!(out, "{:>10}  {}", "", "-".repeat(width));
        let _ = writeln!(
            out,
            "{:>10}  {:<width$}",
            self.y_label,
            format!("{x_min:.0} B  ..(log)..  {x_max:.0} B"),
        );
        for (si, s) in self.series.iter().enumerate() {
            let _ = writeln!(out, "    {} = {}", marks[si % marks.len()], s.label);
        }
        out
    }

    /// Render the data as aligned text columns (one row per size).
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "{:>12}", "bytes");
        for s in &self.series {
            let _ = write!(out, "{:>14}", s.label);
        }
        let _ = writeln!(out);
        let xs: Vec<f64> = self
            .series
            .first()
            .map(|s| s.points.iter().map(|p| p.x).collect())
            .unwrap_or_default();
        for (i, x) in xs.iter().enumerate() {
            let _ = write!(out, "{:>12}", *x as u64);
            for s in &self.series {
                match s.points.get(i) {
                    Some(p) if p.x == *x => {
                        let _ = write!(out, "{:>14.3}", p.y);
                    }
                    _ => {
                        let _ = write!(out, "{:>14}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// Serialize to JSON for EXPERIMENTS.md bookkeeping. Hand-rolled (the
    /// build is hermetic, so no serde_json); floats use Rust's shortest
    /// round-trip formatting so [`FigureData::from_json`] restores them
    /// bit-exactly — including a non-finite point (bandwidth over an empty
    /// measured window divides by zero), which `{:?}` prints as `inf` /
    /// `NaN` and the workspace's one JSON reader
    /// (`xt3_telemetry::parse_json`) accepts.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"title\": {},", quote_json(&self.title));
        let _ = writeln!(out, "  \"y_label\": {},", quote_json(&self.y_label));
        out.push_str("  \"series\": [");
        for (si, s) in self.series.iter().enumerate() {
            out.push_str(if si == 0 { "\n" } else { ",\n" });
            let _ = writeln!(out, "    {{");
            let _ = writeln!(out, "      \"label\": {},", quote_json(&s.label));
            out.push_str("      \"points\": [");
            for (pi, p) in s.points.iter().enumerate() {
                out.push_str(if pi == 0 { "\n" } else { ",\n" });
                let _ = write!(
                    out,
                    "        {{ \"x\": {:?}, \"y\": {:?}, \"y_min\": {:?}, \"y_max\": {:?} }}",
                    p.x, p.y, p.y_min, p.y_max
                );
            }
            out.push_str("\n      ]\n    }");
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parse JSON produced by [`FigureData::to_json`].
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = parse_json(text)?;
        let title = v.get("title")?.as_str()?.to_string();
        let y_label = v.get("y_label")?.as_str()?.to_string();
        let mut series = Vec::new();
        for sv in v.get("series")?.as_array()? {
            let mut s = Series::new(sv.get("label")?.as_str()?);
            for pv in sv.get("points")?.as_array()? {
                s.points.push(xt3_sim::stats::SeriesPoint {
                    x: pv.get("x")?.as_f64()?,
                    y: pv.get("y")?.as_f64()?,
                    y_min: pv.get("y_min")?.as_f64()?,
                    y_max: pv.get("y_max")?.as_f64()?,
                });
            }
            series.push(s);
        }
        Ok(FigureData {
            title,
            y_label,
            series,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(size: u64, messages: u32, us: u64) -> RoundResult {
        RoundResult {
            size,
            messages,
            elapsed: SimTime::from_us(us),
            bw_factor: 1,
        }
    }

    #[test]
    fn latency_and_bandwidth_math() {
        let rr = r(1000, 10, 100); // 10 us per message
        assert!((rr.latency_us() - 10.0).abs() < 1e-9);
        // 1000 bytes / 10 us = 100 MB/s
        assert!((rr.bandwidth_mb() - 100.0).abs() < 1e-9);
        let bi = RoundResult { bw_factor: 2, ..rr };
        assert!((bi.bandwidth_mb() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn series_builders() {
        let rounds = vec![r(1, 10, 50), r(1024, 10, 100)];
        let lat = latency_series("put", &rounds);
        assert_eq!(lat.points.len(), 2);
        assert!((lat.points[0].y - 5.0).abs() < 1e-9);
        let bw = bandwidth_series("put", &rounds);
        assert!((bw.points[1].y - 1024.0 / 10.0).abs() < 1e-9);
    }

    #[test]
    fn latency_percentiles_weight_by_messages() {
        // 90 messages at 5 us, 10 at 80 us: p50 sits in the 5 us bucket
        // ([4096, 8192) ns), p99 in the 80 us bucket ([65536, 131072) ns).
        let rounds = vec![r(8, 90, 450), r(1 << 20, 10, 800)];
        let p = LatencyPercentiles::from_rounds(&rounds);
        assert_eq!(p.messages, 100);
        assert_eq!(p.p50_ns, 4096);
        assert_eq!(p.p99_ns, 65536);
        assert!(p.p50_ns <= p.p95_ns && p.p95_ns <= p.p99_ns);
        assert!(p.render().contains("p95"));
    }

    #[test]
    fn ascii_render_contains_labels() {
        let fig = FigureData {
            title: "Figure 4. Latency".into(),
            y_label: "us".into(),
            series: vec![latency_series("put", &[r(1, 10, 54), r(1024, 10, 90)])],
        };
        let txt = fig.render_ascii(40, 10);
        assert!(txt.contains("Figure 4"));
        assert!(txt.contains("* = put"));
        let table = fig.render_table();
        assert!(table.contains("put"));
        assert!(table.contains("1024"));
    }

    #[test]
    fn json_roundtrip() {
        let fig = FigureData {
            title: "t".into(),
            y_label: "y".into(),
            series: vec![latency_series("put", &[r(1, 2, 10)])],
        };
        let j = fig.to_json();
        let back = FigureData::from_json(&j).expect("round-trips");
        assert_eq!(back.title, "t");
        assert_eq!(back.y_label, "y");
        assert_eq!(back.series[0].label, "put");
        assert_eq!(back.series[0].points.len(), 1);
        assert_eq!(
            back.series[0].points[0].y.to_bits(),
            fig.series[0].points[0].y.to_bits(),
            "floats survive bit-exactly"
        );
    }

    #[test]
    fn json_roundtrips_non_finite_points() {
        // Bandwidth over an empty measured window: 0 B / 0 s, then 8 B /
        // 0 s. The figure must still write and read back rather than lose
        // the whole document.
        let fig = FigureData {
            title: "t".into(),
            y_label: "y".into(),
            series: vec![bandwidth_series("put", &[r(1, 0, 0), r(2, 4, 0)])],
        };
        let ys: Vec<f64> = fig.series[0].points.iter().map(|p| p.y).collect();
        assert!(ys[0].is_nan() && ys[1].is_infinite(), "{ys:?}");
        let back = FigureData::from_json(&fig.to_json()).expect("round-trips");
        assert!(back.series[0].points[0].y.is_nan());
        assert_eq!(back.series[0].points[1].y, f64::INFINITY);
    }

    #[test]
    fn json_escapes_special_chars() {
        let fig = FigureData {
            title: "quote \" backslash \\ newline \n".into(),
            y_label: "y".into(),
            series: vec![],
        };
        let back = FigureData::from_json(&fig.to_json()).expect("round-trips");
        assert_eq!(back.title, fig.title);
    }

    #[test]
    fn empty_figure_renders_gracefully() {
        let fig = FigureData {
            title: "empty".into(),
            y_label: "y".into(),
            series: vec![],
        };
        assert!(fig.render_ascii(20, 5).contains("no data"));
    }
}
