//! Order statistics for repetition and span samples.

/// Median, by linear interpolation between the two middle values.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The `q` quantile (0..=1) by linear interpolation between closest
/// ranks. Empty input gives NaN.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is what the driver uses.
/// Fewer than two values give the single value twice.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(f64::NAN);
        return (v, v);
    }
    let at = |k: usize| {
        // Position k*(n+1)/4 in 1-based ranks, clamped to the data.
        let pos = (k * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * frac
    };
    (at(1), at(3))
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// The percentiles the benchmark reports beside a median, highest
/// first, in thousandths (so that the sample count beyond one is exact).
const PER_MILLE: [usize; 5] = [999, 990, 950, 900, 750];

/// The highest percentile that still has at least ten samples beyond
/// it, with its value; `None` when even p75 has fewer.
pub fn highest_percentile(values: &[f64]) -> Option<(f64, f64)> {
    PER_MILLE
        .iter()
        .find(|&&p| values.len() * (1000 - p) >= 10 * 1000)
        .map(|&p| (p as f64 / 10.0, quantile(values, p as f64 / 1000.0)))
}

/// Median, range and count of a sample, with the highest supported
/// percentile alongside.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
    pub high: Option<(f64, f64)>,
}

pub fn summarize(values: &[f64]) -> Summary {
    Summary {
        median: median(values),
        min: values.iter().copied().fold(f64::INFINITY, f64::min),
        max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        n: values.len(),
        high: highest_percentile(values),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn highest_percentile_needs_ten_samples_beyond_it() {
        let samples = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(highest_percentile(&samples(39)), None);
        assert_eq!(highest_percentile(&samples(40)).unwrap().0, 75.0);
        assert_eq!(highest_percentile(&samples(100)).unwrap().0, 90.0);
        assert_eq!(highest_percentile(&samples(999)).unwrap().0, 95.0);
        assert_eq!(highest_percentile(&samples(1_000)).unwrap().0, 99.0);
        assert_eq!(highest_percentile(&samples(10_000)).unwrap().0, 99.9);
    }
}
