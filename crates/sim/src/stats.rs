//! Online statistics, histograms and benchmark series.
//!
//! These are the containers every benchmark in the repository reports
//! through: Welford mean/variance for repeated trials, log-bucketed
//! histograms for latency distributions, and `(x, y)` series matching the
//! paper's figure axes (message size vs. latency / bandwidth).

/// Streaming mean / variance / min / max via Welford's algorithm.
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (unbiased; 0 for fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    #[expect(clippy::disallowed_methods, reason = "reporting: never in a digest")]
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum sample (NaN if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum sample (NaN if empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// A histogram with logarithmic buckets (one per power of two).
#[derive(Debug, Clone)]
pub struct Histogram {
    /// `buckets[i]` counts samples in `[2^i, 2^(i+1))`; bucket 0 also
    /// counts zero.
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; 64],
            count: 0,
            sum: 0,
        }
    }

    /// Record a sample.
    pub fn record(&mut self, value: u64) {
        let idx = if value == 0 {
            0
        } else {
            63 - value.leading_zeros() as usize
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += value as u128;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile (`q` in `[0,1]`) using the bucket lower bound.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0)) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return if i == 0 { 0 } else { 1u64 << i };
            }
        }
        1u64 << 63
    }

    /// Median (bucket lower bound).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile (bucket lower bound).
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile (bucket lower bound).
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Iterate non-empty buckets as `(lower_bound, count)`.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (if i == 0 { 0 } else { 1u64 << i }, c))
    }
}

/// One `(x, y)` point of a figure series, with spread information.
#[derive(Debug, Clone)]
pub struct SeriesPoint {
    /// X value (message size in bytes, for every figure in the paper).
    pub x: f64,
    /// Y value (latency in µs or bandwidth in MB/s).
    pub y: f64,
    /// Minimum observed y over repetitions.
    pub y_min: f64,
    /// Maximum observed y over repetitions.
    pub y_max: f64,
}

/// A named data series: one curve of one figure.
#[derive(Debug, Clone)]
pub struct Series {
    /// Curve label as it appears in the paper's legend (e.g. "put").
    pub label: String,
    /// Points in ascending x order.
    pub points: Vec<SeriesPoint>,
}

impl Series {
    /// Empty series with a legend label.
    pub fn new(label: impl Into<String>) -> Self {
        Series {
            label: label.into(),
            points: Vec::new(),
        }
    }

    /// Append a point with no spread.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push(SeriesPoint {
            x,
            y,
            y_min: y,
            y_max: y,
        });
    }

    /// The x at which y first reaches `target` (linear interpolation on a
    /// monotonically increasing series). Used for half-bandwidth points.
    pub fn x_where_y_reaches(&self, target: f64) -> Option<f64> {
        let pts = &self.points;
        let mut prev: Option<&SeriesPoint> = None;
        for p in pts {
            if p.y >= target {
                return match prev {
                    None => Some(p.x),
                    Some(q) if p.y == q.y => Some(p.x),
                    Some(q) => {
                        let t = (target - q.y) / (p.y - q.y);
                        Some(q.x + t * (p.x - q.x))
                    }
                };
            }
            prev = Some(p);
        }
        None
    }

    /// Maximum y in the series (NaN-free input assumed).
    pub fn y_max(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.y)
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_matches_closed_form() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Unbiased variance of this classic dataset is 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn online_stats_empty() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 1, 2, 3, 4, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 8);
        assert!((h.mean() - 1019.0 / 8.0).abs() < 1e-12);
        assert_eq!(h.quantile(0.0), 0);
        assert!(h.quantile(1.0) >= 512);
        let buckets: Vec<_> = h.iter_nonzero().collect();
        // 0, 1, 1 land in bucket [0,2); 2, 3 in [2,4); 4 in [4,8); 8 in
        // [8,16); 1000 in [512,1024).
        assert!(buckets.iter().any(|&(lb, c)| lb == 0 && c == 3));
        assert!(buckets.iter().any(|&(lb, c)| lb == 2 && c == 2));
        assert!(buckets.iter().any(|&(lb, c)| lb == 512 && c == 1));
    }

    #[test]
    fn histogram_percentile_accessors() {
        let mut h = Histogram::new();
        // 90 fast samples around 4, 10 slow ones around 4096.
        for _ in 0..90 {
            h.record(5);
        }
        for _ in 0..10 {
            h.record(5000);
        }
        assert_eq!(h.p50(), 4, "median lands in the [4,8) bucket");
        assert_eq!(h.p95(), 4096, "p95 captures the slow tail");
        assert_eq!(h.p99(), 4096);
        assert_eq!(Histogram::new().p99(), 0, "empty histogram is all zeros");
    }

    #[test]
    fn series_interpolation() {
        let mut s = Series::new("put");
        s.push(0.0, 0.0);
        s.push(10.0, 100.0);
        assert_eq!(s.x_where_y_reaches(50.0), Some(5.0));
        assert_eq!(s.x_where_y_reaches(200.0), None);
        assert_eq!(s.y_max(), 100.0);
    }
}
