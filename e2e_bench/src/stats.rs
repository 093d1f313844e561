//! Order statistics for timing samples.

/// Percentiles the benchmark is willing to report, highest first.
const PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a percentile must leave beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `p` among `n` samples, in
/// integer tenths of a percent so that p99.9 of 10,000 is rank 9,990.
fn nearest_rank(p: f64, n: usize) -> usize {
    let tenths = (p * 10.0).round() as usize;
    (tenths * n).div_ceil(1000).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond percentile `p`.
pub fn beyond(p: f64, n: usize) -> usize {
    if n == 0 {
        0
    } else {
        n - nearest_rank(p, n)
    }
}

/// Nearest-rank percentile `p` of `samples`; `None` when empty.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[nearest_rank(p, sorted.len()) - 1])
}

/// The median (nearest-rank p50) of `samples`.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// The highest reportable percentile with at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when there are too few samples for any.
pub fn highest_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .into_iter()
        .find(|&p| beyond(p, n) >= MIN_BEYOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reported_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_percentile(19), None);
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(40), Some(75.0));
        assert_eq!(highest_percentile(99), Some(75.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(199), Some(90.0));
        assert_eq!(highest_percentile(200), Some(95.0));
        assert_eq!(highest_percentile(1_000), Some(99.0));
        assert_eq!(highest_percentile(10_000), Some(99.9));
        for n in 0..2_000 {
            if let Some(p) = highest_percentile(n) {
                assert!(beyond(p, n) >= MIN_BEYOND, "p{p} of {n}");
            }
        }
    }

    #[test]
    fn percentiles_use_the_nearest_rank() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(50.0));
        assert_eq!(percentile(&samples, 90.0), Some(90.0));
        assert_eq!(percentile(&samples, 100.0), Some(100.0));
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[2.0, 1.0]), Some(1.0));
        assert_eq!(median(&[]), None);
        assert_eq!(beyond(90.0, 100), 10);
    }
}
