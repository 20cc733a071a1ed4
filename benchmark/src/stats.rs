//! Order statistics over timing samples.
//!
//! The machine's noise is one-sided: other tenants only ever make a piece
//! of work slower, in bursts of a fraction of a millisecond to seconds
//! whose density drifts over minutes. Identical work repeated is
//! therefore reported as its [`fastest`] repeat (the README has the
//! measurements behind that choice); medians and percentiles describe how
//! *different* pieces of work are distributed — the queries of a
//! workload, the batches of a feed.

/// The median of `samples` (mean of the two middle values for an even
/// count). Panics on an empty slice: a phase that produced no sample is a
/// harness bug, not a measurement.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The fastest of the repeats of one piece of work: what the work costs
/// when nothing else is in its way. Panics on an empty slice, as
/// [`median`] does.
pub fn fastest(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "fastest of no samples");
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The `p`-th percentile (0 < p ≤ 100) by the nearest-rank method: the
/// smallest sample with at least `p` percent of the samples at or below
/// it. Nearest rank never interpolates, so a reported p99 is a latency
/// some operation really had.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile out of range: {p}");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn median_ignores_one_outlier() {
        assert_eq!(median(&[1.0, 1.1, 0.9, 50.0, 1.0]), 1.0);
    }

    #[test]
    fn fastest_is_the_minimum() {
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(fastest(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        // Fewer samples than the percentile resolves: the maximum.
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 99.0), 3.0);
        // A single sample is every percentile.
        assert_eq!(percentile(&[7.0], 1.0), 7.0);
    }
}
