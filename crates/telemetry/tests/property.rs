//! Property tests for the telemetry crate: histogram percentile error
//! bounds and exact totals.

use proptest::prelude::*;

use taopt_telemetry::histogram::{bucket_bounds, bucket_index, LogHistogram};

/// Exact nearest-rank quantile over the raw sample, the ground truth the
/// histogram approximates.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[rank]
}

/// Arbitrary latency samples spanning the full log-bucket range: a
/// random bucket shift plus a random offset within that bucket.
fn arb_samples() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(
        (0u32..40, 0u64..u64::MAX).prop_map(|(shift, raw)| {
            if shift == 0 {
                raw % 2
            } else {
                (1u64 << shift) + raw % (1u64 << shift)
            }
        }),
        1..400,
    )
}

proptest! {
    /// A reported quantile lands within one log2 bucket of the exact
    /// nearest-rank quantile of the recorded samples.
    #[test]
    fn quantiles_are_within_one_bucket(samples in arb_samples(), qm in 0u32..=100) {
        let q = f64::from(qm) / 100.0;
        let h = LogHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let exact = exact_quantile(&sorted, q);
        let approx = h.snapshot().quantile(q).expect("histogram is non-empty");
        // Both must fall inside (or at the boundary of) the exact
        // value's bucket: the approximation error is at most one bucket
        // width by construction.
        let (lo, hi) = bucket_bounds(bucket_index(exact));
        prop_assert!(
            approx >= lo && approx <= hi,
            "q={q}: approx {approx} outside bucket [{lo}, {hi}] of exact {exact}"
        );
    }

    /// Count, sum and max are exact regardless of bucketing.
    #[test]
    fn totals_are_exact(samples in arb_samples()) {
        let h = LogHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        let snap = h.snapshot();
        prop_assert_eq!(snap.count, samples.len() as u64);
        prop_assert_eq!(snap.sum, samples.iter().sum::<u64>());
        prop_assert_eq!(snap.max, samples.iter().copied().max().unwrap_or(0));
    }
}
