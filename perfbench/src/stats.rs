//! Exact order statistics over every recorded sample.

/// Nearest-rank percentile: the smallest sample such that at least
/// `p · n` samples are less than or equal to it (rank `⌈p·n⌉`, 1-based).
/// `sorted` must be ascending and non-empty; `p` lies in `(0, 1]`.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 1.0, "percentile {p} outside (0, 1]");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Ascending copy of `samples` (total order; the benchmark's samples are
/// finite durations).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a non-empty sample set (nearest-rank, so always a sample).
pub fn median(samples: &[f64]) -> f64 {
    nearest_rank(&sorted(samples), 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_samples() {
        // 1..=100: p50 is the 50th value, p95 the 95th, p100 the max.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 0.50), 50.0);
        assert_eq!(nearest_rank(&v, 0.95), 95.0);
        assert_eq!(nearest_rank(&v, 0.99), 99.0);
        assert_eq!(nearest_rank(&v, 1.0), 100.0);
        assert_eq!(nearest_rank(&v, 0.001), 1.0);
    }

    #[test]
    fn nearest_rank_rounds_the_rank_up() {
        // n = 5: p50 → rank ⌈2.5⌉ = 3; p95 → rank ⌈4.75⌉ = 5.
        let v = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(nearest_rank(&v, 0.50), 30.0);
        assert_eq!(nearest_rank(&v, 0.95), 50.0);
        assert_eq!(nearest_rank(&v, 0.20), 10.0);
        assert_eq!(nearest_rank(&v, 0.21), 20.0);
    }

    #[test]
    fn percentiles_are_samples_not_bucket_edges() {
        // Log2 buckets would report 1023 or 2047 for these; nearest rank
        // returns the recorded values themselves.
        let v = sorted(&[1500.0, 1100.0, 1900.0, 1300.0, 1700.0]);
        assert_eq!(nearest_rank(&v, 0.5), 1500.0);
        assert_eq!(nearest_rank(&v, 0.95), 1900.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_input_is_rejected() {
        nearest_rank(&[], 0.5);
    }
}
