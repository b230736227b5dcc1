//! Order statistics for the benchmark's samples.
//!
//! Percentiles are nearest-rank (the value at rank `ceil(p/100 · n)` of
//! the sorted sample), so every reported number is one that was measured.
//! A percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it: with fewer, it is the reading of a handful of requests, not
//! a property of the system.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Sorts a sample for the functions below.
pub fn sorted(mut sample: Vec<f64>) -> Vec<f64> {
    sample.sort_by(f64::total_cmp);
    sample
}

/// Nearest-rank percentile of a sorted, non-empty sample, `0 < p <= 100`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples lie strictly beyond the nearest-rank position of `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    n - ((p / 100.0 * n as f64).ceil() as usize)
        .clamp(1, n.max(1))
        .min(n)
}

/// The highest of 99.9, 99, 95, 90 that still has [`MIN_BEYOND`] samples
/// beyond it in a sample of `n`, or `None` when only the median is
/// supported (`n < 11` can support nothing above it).
pub fn highest_supported(n: usize) -> Option<f64> {
    [99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find(|&p| n > 0 && beyond(n, p) >= MIN_BEYOND)
}

/// [`percentile`], refused (`None`) when fewer than [`MIN_BEYOND`]
/// samples lie beyond `p`.
pub fn supported_percentile(sorted: &[f64], p: f64) -> Option<f64> {
    (!sorted.is_empty() && beyond(sorted.len(), p) >= MIN_BEYOND).then(|| percentile(sorted, p))
}

/// Median of a non-empty sample: the mean of the two middle values when
/// the count is even (what `statistics.median` gives, and what the driver
/// compares across runs).
pub fn median(sample: &[f64]) -> f64 {
    assert!(!sample.is_empty(), "median of an empty sample");
    let s = sorted(sample.to_vec());
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Summary of one metric across repetitions or runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub n: usize,
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
}

impl Spread {
    /// Inter-quartile distance as a share of the median — the spread the
    /// driver holds against a metric's bound. Zero when the median is.
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Min, quartiles, median and max. Quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (exclusive method: position
/// `k·(n+1)/4`, linear interpolation, clamped to the sample), because
/// that is what the driver computes; a single value is its own quartiles.
pub fn spread(sample: &[f64]) -> Spread {
    assert!(!sample.is_empty(), "spread of an empty sample");
    let s = sorted(sample.to_vec());
    let n = s.len();
    let quartile = |k: usize| -> f64 {
        if n == 1 {
            return s[0];
        }
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    Spread {
        n,
        min: s[0],
        q1: quartile(1),
        median: median(&s),
        q3: quartile(3),
        max: s[n - 1],
    }
}

/// The quartile of `sample` on the favourable side of its median, by
/// nearest rank (so a value that was measured): the first quartile when
/// lower is better, the third when higher is. Interference from a shared
/// host only ever slows a repetition down, so this side of the
/// distribution is the steadier estimate of what the code costs, while a
/// change to the code still moves every repetition and the quartile with
/// them. Two to four repetitions give their best one.
pub fn favourable_quartile(sample: &[f64], lower_is_better: bool) -> f64 {
    assert!(!sample.is_empty(), "quartile of an empty sample");
    let s = sorted(sample.to_vec());
    let rank = (s.len() - 1) / 4;
    if lower_is_better {
        s[rank]
    } else {
        s[s.len() - 1 - rank]
    }
}

/// The p50 of each tenth of a sample taken in arrival order. Fewer than
/// ten samples give fewer deciles (one per sample).
pub fn decile_p50s(in_order: &[f64]) -> Vec<f64> {
    let n = in_order.len();
    let parts = n.min(10);
    (0..parts)
        .map(|d| median(&in_order[d * n / parts..(d + 1) * n / parts]))
        .collect()
}

/// Last-decile p50 over first-decile p50: how much one operation slows
/// down as history accumulates. 1.0 when there is nothing to compare.
pub fn drift_ratio(in_order: &[f64]) -> f64 {
    let deciles = decile_p50s(in_order);
    match (deciles.first(), deciles.last()) {
        (Some(&first), Some(&last)) if first > 0.0 => last / first,
        _ => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_on_hand_computed_vectors() {
        let s = sorted(vec![15.0, 20.0, 35.0, 40.0, 50.0]);
        assert_eq!(percentile(&s, 5.0), 15.0);
        assert_eq!(percentile(&s, 30.0), 20.0);
        assert_eq!(percentile(&s, 40.0), 20.0);
        assert_eq!(percentile(&s, 50.0), 35.0);
        assert_eq!(percentile(&s, 100.0), 50.0);
        let s = seq(200);
        assert_eq!(percentile(&s, 50.0), 100.0);
        assert_eq!(percentile(&s, 99.0), 198.0);
        assert_eq!(percentile(&s, 99.9), 200.0);
    }

    #[test]
    fn beyond_counts_samples_past_the_rank() {
        assert_eq!(beyond(20_000, 99.0), 200);
        assert_eq!(beyond(1_500, 99.0), 15);
        assert_eq!(beyond(1_500, 99.9), 1);
        assert_eq!(beyond(10, 50.0), 5);
        assert_eq!(beyond(1, 99.0), 0);
    }

    #[test]
    fn highest_supported_needs_ten_beyond() {
        assert_eq!(highest_supported(20_000), Some(99.9));
        assert_eq!(highest_supported(10_001), Some(99.9));
        assert_eq!(highest_supported(10_000), Some(99.0));
        assert_eq!(highest_supported(1_500), Some(99.0));
        assert_eq!(highest_supported(1_000), Some(99.0));
        assert_eq!(highest_supported(999), Some(95.0));
        assert_eq!(highest_supported(200), Some(95.0));
        assert_eq!(highest_supported(199), Some(90.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(99), None);
        assert_eq!(highest_supported(10), None, "n < 11: median only");
        assert_eq!(highest_supported(0), None);
    }

    #[test]
    fn unsupported_percentiles_are_refused() {
        let s = seq(1_500);
        assert_eq!(supported_percentile(&s, 99.0), Some(1485.0));
        assert_eq!(supported_percentile(&s, 99.9), None);
        assert_eq!(supported_percentile(&seq(10), 90.0), None);
        assert_eq!(supported_percentile(&[], 50.0), None);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s = spread(&seq(10));
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        assert!((s.iqr_share() - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        let s = spread(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5] before
        // clamping; Python extrapolates, we do too (same formula).
        let s = spread(&[10.0, 20.0]);
        assert_eq!((s.q1, s.median, s.q3), (7.5, 15.0, 22.5));
        let s = spread(&[7.0]);
        assert_eq!((s.q1, s.median, s.q3, s.iqr_share()), (7.0, 7.0, 7.0, 0.0));
    }

    #[test]
    fn favourable_quartiles_are_measured_values_on_the_better_side() {
        let times = [9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0];
        assert_eq!(favourable_quartile(&times, true), 3.0);
        assert_eq!(favourable_quartile(&times, false), 7.0);
        assert_eq!(favourable_quartile(&[4.0, 2.0], true), 2.0);
        assert_eq!(favourable_quartile(&[4.0, 2.0], false), 4.0);
        assert_eq!(favourable_quartile(&[5.0], true), 5.0);
        assert_eq!(favourable_quartile(&seq(24), true), 6.0);
        assert_eq!(favourable_quartile(&seq(24), false), 19.0);
    }

    #[test]
    fn deciles_and_drift() {
        let ramp = seq(100);
        let d = decile_p50s(&ramp);
        assert_eq!(d.len(), 10);
        assert_eq!(d[0], 5.5);
        assert_eq!(d[9], 95.5);
        assert!((drift_ratio(&ramp) - 95.5 / 5.5).abs() < 1e-12);
        assert_eq!(drift_ratio(&[2.0; 50]), 1.0);
        assert_eq!(decile_p50s(&[1.0, 9.0, 5.0]), vec![1.0, 9.0, 5.0]);
        assert_eq!(drift_ratio(&[]), 1.0);
    }
}
