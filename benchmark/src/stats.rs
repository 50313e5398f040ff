//! Order statistics for pass timings and the run-to-run spread rule.

/// Median of `values` (mean of the middle two for even counts); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Index into the ascending sort of `n` samples of the highest
/// percentile that still has at least ten samples beyond it, or `None`
/// when that would fall below the median (fewer than 21 samples).
pub fn tail_index(n: usize) -> Option<usize> {
    (n >= 21).then(|| n - 11)
}

/// The tail timing of `values` and the percentile it stands for: the
/// [`tail_index`] sample where there are enough, the maximum (p100)
/// otherwise, so that a run of few long passes still reports its worst.
pub fn tail(values: &[f64]) -> (f64, u32) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match (tail_index(v.len()), v.last()) {
        (Some(i), _) => (
            v[i],
            (100.0 * i as f64 / (v.len() - 1) as f64).round() as u32,
        ),
        (None, Some(&max)) => (max, 100),
        (None, None) => (0.0, 100),
    }
}

/// The p-th percentile (nearest rank on the ascending sort); 0 when empty.
pub fn percentile(values: &[u64], p: f64) -> u64 {
    let mut v = values.to_vec();
    v.sort_unstable();
    if v.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * (v.len() - 1) as f64).round() as usize;
    v[rank.min(v.len() - 1)]
}

/// `(min, median, max, spread)` of one metric across runs, where spread is
/// the distance between the first and third quartile as a share of the
/// median — the quartiles of Python's `statistics.quantiles(v, n=4)`, which
/// is what the driver computes. Needs at least two values.
pub fn spread(values: &[f64]) -> (f64, f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let quartile = |i: usize| {
        // The "exclusive" method: position i(n+1)/4, interpolated.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let med = median(&v);
    let rel = if med == 0.0 {
        0.0
    } else {
        (quartile(3) - quartile(1)) / med.abs()
    };
    (v[0], med, v[n - 1], rel)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_index(20), None);
        assert_eq!(tail_index(21), Some(10));
        // The issue's worked examples: p79 at 48 passes, p84 at 64.
        for (n, pct) in [(48usize, 79u32), (64, 84)] {
            let i = tail_index(n).unwrap();
            assert_eq!(n - 1 - i, 10, "exactly ten samples beyond at n={n}");
            let v: Vec<f64> = (0..n).map(|x| x as f64).collect();
            assert_eq!(tail(&v), (i as f64, pct));
        }
    }

    #[test]
    fn tail_of_few_samples_is_the_maximum() {
        assert_eq!(tail(&[3.0, 9.0, 4.0]), (9.0, 100));
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles([10, 11, 12, 14, 20], n=4) == [10.5, 12.0, 17.0]
        let (min, med, max, rel) = spread(&[14.0, 10.0, 20.0, 12.0, 11.0]);
        assert_eq!((min, med, max), (10.0, 12.0, 20.0));
        assert!((rel - 6.5 / 12.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert!((spread(&[1.0, 2.0]).3 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[5, 1, 9, 3, 7], 50.0), 5);
        assert_eq!(percentile(&[5, 1, 9, 3, 7], 100.0), 9);
        assert_eq!(percentile(&[], 50.0), 0);
    }
}
