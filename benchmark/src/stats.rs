//! Order statistics the benchmark reports: nearest-rank percentiles and
//! the "ten samples beyond" rule that picks a workload's tail percentile.

/// Nearest-rank percentile of an ascending-sorted sample: the value at
/// rank `ceil(p/100 * n)` (1-based), so every reported figure is one
/// that was actually measured. Panics on an empty sample.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(100).clamp(1, n)
}

/// The highest whole percentile (50..=99) that still leaves at least
/// ten samples beyond it, or `None` when even the median does not
/// (fewer than 20 samples).
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=99).rev().find(|&p| n > 0 && n - rank(n, p) >= 10)
}

/// Sorts a sample ascending (NaN-free by construction: every value is a
/// measured duration or count).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("measurements are never NaN"));
    v
}

/// Median as the nearest-rank p50.
pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_measured_values() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50), 5.0);
        assert_eq!(percentile(&s, 51), 6.0);
        assert_eq!(percentile(&s, 90), 9.0);
        assert_eq!(percentile(&s, 91), 10.0);
        assert_eq!(percentile(&s, 99), 10.0);
        assert_eq!(percentile(&s, 0), 1.0);
        assert_eq!(percentile(&[7.0], 75), 7.0);
    }

    #[test]
    fn tail_rule_leaves_ten_samples_beyond() {
        // the sizes the issue quotes: 40 ops -> p75, 300 passes -> p96,
        // anything large caps at p99
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(300), Some(96));
        assert_eq!(tail_percentile(60_000), Some(99));
        assert_eq!(tail_percentile(1_000), Some(99));
        assert_eq!(tail_percentile(999), Some(98));
        // 20 samples: rank 10 leaves exactly ten beyond
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        for n in 20..500 {
            let p = tail_percentile(n).unwrap();
            assert!(n - rank(n, p) >= 10, "n={n} p={p}");
            assert!(
                p == 99 || n - rank(n, p + 1) < 10,
                "n={n} p={p} not maximal"
            );
        }
    }

    #[test]
    fn median_of_unsorted_input() {
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 2.0]), 2.0);
    }
}
