//! Percentiles and order statistics, taken in percent.
//!
//! `percentile(xs, 99.0)` is the 99th percentile. The helpers reject a
//! fraction passed where a percent is expected (`0.99` would silently be
//! the 0.99th percentile, near the minimum), which is the mistake this
//! module exists to rule out.

/// Nearest-rank percentile of `samples` at `pct` percent (1 < pct ≤ 100).
/// Sorts a copy; returns `None` for an empty sample.
pub fn percentile(samples: &[f64], pct: f64) -> Option<f64> {
    check_pct(pct);
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    Some(sorted[rank.min(sorted.len()) - 1])
}

/// Median (nearest rank from below for even counts averaged with the
/// next one, as `statistics.median` does).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of nothing");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Percentile of a bucketed histogram given as `(bucket_lower_bound,
/// count)` pairs in ascending order, linearly interpolated inside the
/// bucket that holds the rank. The next bucket's lower bound closes a
/// bucket; `max`, the largest recorded value, closes the last one.
pub fn bucket_percentile(buckets: &[(u64, u64)], max: u64, pct: f64) -> Option<f64> {
    check_pct(pct);
    let total: u64 = buckets.iter().map(|b| b.1).sum();
    if total == 0 {
        return None;
    }
    let target = (pct / 100.0) * total as f64;
    let mut seen = 0u64;
    for (i, &(lo, c)) in buckets.iter().enumerate() {
        if (seen + c) as f64 >= target {
            let hi = buckets.get(i + 1).map_or(max.max(lo), |b| b.0);
            let frac = ((target - seen as f64) / c as f64).clamp(0.0, 1.0);
            return Some(lo as f64 + frac * (hi - lo) as f64);
        }
        seen += c;
    }
    buckets.last().map(|b| b.0 as f64)
}

fn check_pct(pct: f64) {
    assert!(
        pct > 1.0 && pct <= 100.0,
        "percentile takes a percent in (1, 100], got {pct}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(50.0));
        assert_eq!(percentile(&xs, 99.0), Some(99.0));
        assert_eq!(percentile(&xs, 100.0), Some(100.0));
        assert_eq!(percentile(&xs, 99.5), Some(100.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    #[should_panic(expected = "percent")]
    fn fraction_is_refused() {
        percentile(&[1.0, 2.0], 0.99);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn bucket_interpolation() {
        // 100 samples spread evenly over [0, 100) in ten buckets.
        let buckets: Vec<(u64, u64)> = (0..10).map(|i| (i * 10, 10)).collect();
        let p50 = bucket_percentile(&buckets, 99, 50.0).unwrap();
        assert!((p50 - 50.0).abs() < 1e-9, "{p50}");
        let p95 = bucket_percentile(&buckets, 99, 95.0).unwrap();
        assert!((p95 - 95.0).abs() < 1.0, "{p95}");
        assert_eq!(bucket_percentile(&[], 0, 50.0), None);
    }
}
