//! Descriptive statistics and histograms.

/// Arithmetic mean. Returns 0 for an empty slice (callers in this
/// workspace always pass non-empty data; the choice avoids NaN poisoning
/// in report tables).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Sample variance (n−1 denominator). Returns 0 for fewer than 2 points.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Percentile in `[0, 100]` using linear interpolation between order
/// statistics (the common "linear" / type-7 definition).
///
/// # Panics
/// Panics on empty input or `q` outside `[0, 100]`.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty data");
    assert!((0.0..=100.0).contains(&q), "q must be in [0, 100]");
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q / 100.0 * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// A fixed-width histogram over `[min, max]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Left edge of the first bin.
    pub min: f64,
    /// Right edge of the last bin.
    pub max: f64,
    /// Bin counts.
    pub counts: Vec<usize>,
}

impl Histogram {
    /// Bin width.
    pub fn bin_width(&self) -> f64 {
        (self.max - self.min) / self.counts.len() as f64
    }

    /// Total number of counted observations.
    pub fn total(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Normalised density value of bin `i` (integrates to ~1).
    pub fn density(&self, i: usize) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        self.counts[i] as f64 / (total as f64 * self.bin_width())
    }
}

/// Builds a histogram with `bins` equal-width bins spanning the data
/// range (values exactly at `max` land in the last bin).
///
/// # Panics
/// Panics when `bins == 0` or the input is empty.
pub fn histogram(xs: &[f64], bins: usize) -> Histogram {
    assert!(bins > 0, "need at least one bin");
    assert!(!xs.is_empty(), "histogram of empty data");
    let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let span = (max - min).max(1e-12);
    let mut counts = vec![0usize; bins];
    for &x in xs {
        let idx = (((x - min) / span) * bins as f64) as usize;
        counts[idx.min(bins - 1)] += 1;
    }
    Histogram {
        min,
        max: min + span,
        counts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_known() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), 5.0);
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
        assert!((std_dev(&xs) - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_and_singleton_degenerate() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
    }

    #[test]
    fn percentile_endpoints_and_median() {
        let xs = [3.0, 1.0, 2.0, 5.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
        assert_eq!(percentile(&xs, 50.0), 3.0);
    }

    #[test]
    fn percentile_interpolates() {
        let xs = [0.0, 10.0];
        assert_eq!(percentile(&xs, 25.0), 2.5);
        assert_eq!(percentile(&xs, 90.0), 9.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        percentile(&[], 50.0);
    }

    #[test]
    fn histogram_counts_everything() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let h = histogram(&xs, 10);
        assert_eq!(h.total(), 100);
        for &c in &h.counts {
            assert_eq!(c, 10);
        }
        // Density integrates to 1.
        let integral: f64 = (0..10).map(|i| h.density(i) * h.bin_width()).sum();
        assert!((integral - 1.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_max_value_in_last_bin() {
        let h = histogram(&[0.0, 1.0, 2.0], 2);
        assert_eq!(h.counts, vec![1, 2]);
    }

    #[test]
    fn histogram_constant_data() {
        let h = histogram(&[5.0; 8], 4);
        assert_eq!(h.total(), 8);
    }

    #[test]
    fn percentile_with_nan_does_not_panic() {
        // Regression for the float-order sweep: NaN input used to
        // panic the sort; total_cmp places NaN above +inf, so low
        // percentiles of mostly-finite data stay finite.
        let xs = [3.0, f64::NAN, 1.0, 2.0];
        let p0 = percentile(&xs, 0.0);
        assert_eq!(p0, 1.0);
        assert!(percentile(&xs, 100.0).is_nan());
    }
}
