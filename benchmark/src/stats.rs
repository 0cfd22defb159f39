//! Order statistics over small samples of measured values.

/// Sort a copy ascending. Measured values are never NaN.
pub fn sorted(vals: &[f64]) -> Vec<f64> {
    let mut v = vals.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("measured values are not NaN"));
    v
}

/// Median (mean of the middle two for an even count); 0 for an empty sample.
pub fn median(vals: &[f64]) -> f64 {
    let v = sorted(vals);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least `p` of the sample at or below it. With 2,500 samples p99 leaves
/// 25 values beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Distance between the first and third quartile. Quartiles follow
/// Python's `statistics.quantiles(values, n=4)` (exclusive method). Fewer
/// than two values have no spread.
pub fn iqr(vals: &[f64]) -> f64 {
    let v = sorted(vals);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let q = |k: usize| {
        let pos = k as f64 * (n as f64 + 1.0) / 4.0; // 1-based position
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (q(3) - q(1)).abs()
}

/// `iqr` as a share of the median: the driver's spread.
pub fn iqr_share(vals: &[f64]) -> f64 {
    let med = median(vals);
    if med == 0.0 {
        return 0.0;
    }
    iqr(vals) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[5.0], 0.99), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // 2,500 samples leave exactly 25 beyond p99.
        let big: Vec<f64> = (1..=2500).map(f64::from).collect();
        assert_eq!(percentile(&big, 0.99), 2475.0);
    }

    #[test]
    fn iqr_share_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert!((iqr_share(&[5.0, 1.0, 4.0, 2.0, 3.0]) - 1.0).abs() < 1e-12);
        assert_eq!(iqr_share(&[2.0]), 0.0);
        assert_eq!(iqr_share(&[2.0, 2.0, 2.0]), 0.0);
    }
}
