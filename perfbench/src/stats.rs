//! Order statistics for timing samples.

use rfc_stats::Quantiles;

/// Median of `v` by `rfc_stats::Quantiles` (nearest rank, so the lower
/// middle value of an even count); 0 for an empty sample.
pub fn median(v: &[f64]) -> f64 {
    let mut q = Quantiles::new();
    for &x in v {
        q.add(x);
    }
    q.median().unwrap_or(0.0)
}

/// Number of samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile of `v` with at least [`TAIL_BEYOND`] samples
/// strictly above it, as `(value, percentile)`: with `N` sorted samples
/// that is the `N - 11`-th (0-based) value, at percentile
/// `100·(N-10)/N`. A sample too small to have one reports its maximum
/// at percentile 100, so callers must print the sample count beside it.
pub fn tail(v: &[f64]) -> (f64, f64) {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let n = s.len();
    match n {
        0 => (0.0, 100.0),
        _ if n <= TAIL_BEYOND => (s[n - 1], 100.0),
        _ => (
            s[n - TAIL_BEYOND - 1],
            100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        // 1..=100: the 90th value (90.0) has exactly 10 values above it.
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let (value, pct) = tail(&v);
        assert_eq!(value, 90.0);
        assert_eq!(pct, 90.0);
        assert_eq!(v.iter().filter(|&&x| x > value).count(), TAIL_BEYOND);
        // Exactly 11 samples: the smallest one, at percentile 100/11.
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&v).0, 1.0);
        // Too few samples: the maximum, flagged as percentile 100.
        assert_eq!(tail(&[2.0, 7.0, 5.0]), (7.0, 100.0));
    }
}
