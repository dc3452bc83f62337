//! Order statistics shared by every workload.

/// Percentile `p` (0–100) of `values`, linearly interpolated between the
/// closest ranks; NaN when `values` is empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// Arithmetic mean; NaN when empty.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Geometric mean of positive values; NaN when empty.
pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Histogram of positive values in log-spaced buckets 0.25 % wide, from
/// [`LogHistogram::MIN`] up: millions of samples in a few tens of
/// kilobytes, with percentiles interpolated inside a bucket.
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
}

impl LogHistogram {
    /// Smallest value told apart; smaller ones share the first bucket.
    pub const MIN: f64 = 1e-3;
    /// Bucket width, as a ratio of upper to lower edge.
    pub const GROWTH: f64 = 1.0025;
    /// Buckets: values up to about 1e10 × [`Self::MIN`] are told apart.
    const BUCKETS: usize = 9_300;

    /// Empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0; Self::BUCKETS],
            total: 0,
        }
    }

    fn lower_edge(i: usize) -> f64 {
        Self::MIN * Self::GROWTH.powi(i as i32)
    }

    /// Count one value.
    pub fn record(&mut self, v: f64) {
        // The cast saturates: values below MIN (and NaN) land in bucket 0.
        let i = ((v / Self::MIN).ln() / Self::GROWTH.ln()) as usize;
        self.counts[i.min(Self::BUCKETS - 1)] += 1;
        self.total += 1;
    }

    /// Values counted.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// Percentile `p` (0–100), interpolated linearly inside its bucket;
    /// NaN when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let rank = p.clamp(0.0, 100.0) / 100.0 * self.total as f64;
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (below + c) as f64 >= rank {
                let (lo, hi) = (Self::lower_edge(i), Self::lower_edge(i + 1));
                let frac = ((rank - below as f64) / c as f64).clamp(0.0, 1.0);
                return lo + (hi - lo) * frac;
            }
            below += c;
        }
        Self::lower_edge(Self::BUCKETS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_fixed_inputs() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 25.0), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((percentile(&ten, 90.0) - 9.1).abs() < 1e-12);
        assert!((percentile(&ten, 99.0) - 9.91).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn histogram_percentiles_stay_within_a_bucket() {
        let mut h = LogHistogram::new();
        assert!(h.percentile(50.0).is_nan());
        let values: Vec<f64> = (1..=10_000).map(|i| 10.0 + f64::from(i) * 0.01).collect();
        for &v in values.iter().rev() {
            h.record(v);
        }
        assert_eq!(h.len(), 10_000);
        for p in [1.0, 10.0, 50.0, 90.0, 99.0] {
            let (exact, est) = (percentile(&values, p), h.percentile(p));
            assert!((est / exact - 1.0).abs() < 0.003, "p{p}: {est} vs {exact}");
        }
        let mut one = LogHistogram::new();
        one.record(17.0);
        let m = one.percentile(50.0);
        assert!(m > 17.0 / LogHistogram::GROWTH && m < 17.0 * LogHistogram::GROWTH);
    }

    #[test]
    fn means_of_fixed_inputs() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
    }
}
