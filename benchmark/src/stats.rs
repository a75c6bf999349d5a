//! Order statistics with the benchmark's honesty rule: a percentile is
//! only a number when at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie beyond a percentile before it may be printed.
pub const MIN_BEYOND: usize = 10;

/// Ascending copy of `values` (NaNs are not produced by any timer here).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// Median of an ascending sample; `None` when empty.
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// Median of an unsorted sample.
pub fn median_of(values: &[f64]) -> Option<f64> {
    median(&sorted(values))
}

/// Nearest-rank `p`-th percentile of an ascending sample, refused
/// (`None`) when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let rank = rank.min(n);
    (n - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// Quartiles `(q1, q2, q3)` of an unsorted sample by the exclusive
/// method (what Python's `statistics.quantiles(values, n=4)` returns);
/// `None` with fewer than two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn percentile_is_refused_without_ten_samples_beyond() {
        // p95 of 199 samples: rank 190, 9 beyond -> refused.
        assert_eq!(percentile(&ramp(199), 95.0), None);
        // p95 of 200 samples: rank 190, 10 beyond -> printed.
        assert_eq!(percentile(&ramp(200), 95.0), Some(190.0));
        // Two samples never support any percentile, not even p50.
        assert_eq!(percentile(&[1.0, 2.0], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_handles_even_odd_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some(3.0));
        assert_eq!(median(&[1.0, 3.0]), Some(2.0));
        assert_eq!(median_of(&[9.0, 1.0, 5.0]), Some(5.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 3.0, 4.5)));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), Some((2.75, 5.5, 8.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
