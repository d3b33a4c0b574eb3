//! Order statistics over op latencies, by the nearest-rank rule.

/// Index of the `pct`-th percentile (1..=100) among `n` sorted samples:
/// the sample of rank `ceil(pct·n/100)`. Integer arithmetic, so p90 of
/// 100 samples is exactly rank 90.
pub fn rank_index(n: usize, pct: usize) -> usize {
    assert!(n > 0, "a percentile of no samples");
    assert!((1..=100).contains(&pct), "percentile {pct} out of 1..=100");
    (pct * n).div_ceil(100).max(1) - 1
}

/// The `pct`-th percentile of `samples` (any order).
pub fn percentile(samples: &[f64], pct: usize) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank_index(sorted.len(), pct)]
}

/// The nearest-rank median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50)
}

/// Rates over consecutive windows of at least `window` seconds, from the
/// elapsed time and cumulative op count at the end of each pass. A short
/// last window is folded into the one before it.
pub fn window_rates(pass_ends: &[(f64, usize)], window: f64) -> Vec<f64> {
    let mut bounds = vec![(0.0, 0)];
    for &(t, ops) in pass_ends {
        if t - bounds.last().expect("starts with the origin").0 >= window {
            bounds.push((t, ops));
        }
    }
    if let Some(&last) = pass_ends.last() {
        if bounds.len() > 1 {
            bounds.pop();
        }
        bounds.push(last);
    }
    bounds
        .windows(2)
        .map(|w| (w[1].1 - w[0].1) as f64 / (w[1].0 - w[0].0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Samples strictly beyond the `pct`-th percentile among `n`.
    fn tail_len(n: usize, pct: usize) -> usize {
        n - 1 - rank_index(n, pct)
    }

    #[test]
    fn rank_index_is_nearest_rank() {
        assert_eq!(rank_index(1, 50), 0);
        assert_eq!(rank_index(100, 90), 89);
        assert_eq!(rank_index(101, 90), 90);
        assert_eq!(rank_index(10, 50), 4);
        assert_eq!(rank_index(7, 100), 6);
    }

    #[test]
    fn p90_leaves_ten_samples_beyond_it_at_the_minimum_op_count() {
        let n = crate::MIN_OPS;
        assert!(tail_len(n, 90) >= 10);
        assert!(tail_len(n - 1, 90) < 10, "MIN_OPS is not the smallest");
        for extra in 0..500 {
            assert!(tail_len(n + extra, 90) >= 10);
        }
    }

    #[test]
    fn window_rates_fold_a_short_tail_into_the_last_window() {
        let ends = [(0.5, 10), (1.0, 20), (1.6, 30), (2.1, 40), (2.4, 50)];
        // Windows [0, 1.0] and [1.0, 2.4]: the tail after 2.1 is folded in.
        assert_eq!(window_rates(&ends, 1.0), [20.0, 30.0 / 1.4]);
        assert_eq!(window_rates(&[(0.3, 3)], 1.0), [10.0]);
        assert!(window_rates(&[], 1.0).is_empty());
    }

    #[test]
    fn percentiles_of_a_known_sample() {
        let samples: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(median(&samples), 50.0);
        assert_eq!(percentile(&samples, 90), 90.0);
    }
}
