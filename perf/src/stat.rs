//! Order statistics and the simulated-state digest.
//!
//! Percentiles are nearest-rank (no interpolation: the reported value is a
//! latency some access really paid) and are withheld unless at least
//! [`MIN_BEYOND`] samples lie beyond them — a p99.9 over 2 000 samples is
//! two points, not a tail. Quartiles follow Python's
//! `statistics.quantiles(values, n=4)` so the spread the benchmark prints is
//! the spread the acceptance rule computes.

/// Samples that must lie strictly beyond a percentile for it to be printed.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice, `per_mille` in `1..=1000`.
/// `None` if fewer than [`MIN_BEYOND`] samples lie beyond the chosen rank.
pub fn percentile(sorted: &[u64], per_mille: u32) -> Option<u64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    debug_assert!((1..=1000).contains(&per_mille));
    let n = sorted.len();
    // rank = ceil(n * p), 1-based.
    let rank = (n * per_mille as usize).div_ceil(1000);
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Median of `values` (mean of the two middle values for an even count).
/// Sorts in place. Panics on an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// `(q1, q2, q3)` by the exclusive method of Python's
/// `statistics.quantiles(values, n=4)`. Sorts in place; needs two samples.
pub fn quartiles(values: &mut [f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile range as a share of the median — the run-to-run spread.
pub fn spread(values: &mut [f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    (q3 - q1) / q2
}

/// FNV-1a over a sequence of words: the digest of a run's simulated state.
/// Stable across platforms and builds (fixed constants, fixed byte order).
pub fn digest(words: &[u64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        // rank ceil(100 * 0.5) = 50 -> value 50; 50 samples beyond.
        assert_eq!(percentile(&v, 500), Some(50));
        // rank 90 -> value 90, exactly 10 beyond: allowed.
        assert_eq!(percentile(&v, 900), Some(90));
        // rank 91 -> 9 beyond: withheld.
        assert_eq!(percentile(&v, 910), None);
        assert_eq!(percentile(&v, 990), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<u64> = (0..10_000).collect();
        // p99.9: rank 9 990, 10 beyond -> printed.
        assert_eq!(percentile(&v, 999), Some(9_989));
        let v: Vec<u64> = (0..9_999).collect();
        // rank ceil(9 998.001) = 9 990 of 9 999 -> 9 beyond -> withheld.
        assert_eq!(percentile(&v, 999), None);
        assert_eq!(percentile(&[], 500), None);
        assert_eq!(percentile(&[7; 10], 500), None);
    }

    #[test]
    fn percentile_never_interpolates() {
        let v = [
            1u64, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1000, 1000,
        ];
        let p = percentile(&v, 500).unwrap();
        assert!(v.contains(&p));
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [5.0]), 5.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7], n=4) == [2.0, 4.0, 6.0]
        let mut v: Vec<f64> = (1..=7).map(f64::from).collect();
        assert_eq!(quartiles(&mut v), (2.0, 4.0, 6.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&mut [20.0, 10.0]), (7.5, 15.0, 22.5));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&mut v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&mut [2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn digest_is_stable_and_order_sensitive() {
        // Pinned: a change here silently invalidates every committed digest.
        assert_eq!(digest(&[]), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(&[1, 2, 3]), digest(&[1, 2, 3]));
        assert_ne!(digest(&[1, 2, 3]), digest(&[3, 2, 1]));
        assert_ne!(digest(&[0]), digest(&[0, 0]));
        assert_eq!(digest(&[0x0102_0304_0506_0708]), 0x0c6d_4496_e178_59d5);
    }
}
