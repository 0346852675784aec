//! Sample statistics: medians, and the highest tail percentile the sample
//! count supports.

/// Nearest-rank quantile of `sorted` (ascending); `q` in `[0, 1]`.
fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank quantile of `values`.
///
/// # Panics
///
/// Panics if `values` is empty: every caller sizes its loop so that at
/// least one sample exists, and a silent 0 would read as a real timing.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    quantile_sorted(&sorted(values), q)
}

/// The median.
pub fn p50(values: &[f64]) -> f64 {
    quantile(values, 0.50)
}

/// Arithmetic mean (0 for no samples; used for counts, never timings).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Samples that lie strictly beyond the nearest-rank `q` quantile.
fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Fewest samples that must lie beyond a tail percentile for it to be
/// reported.
pub const MIN_BEYOND: usize = 10;

/// The highest of p99 / p95 / p90 / p75 with at least [`MIN_BEYOND`]
/// samples beyond it, as `(percent, value)`; `None` when even p75 has too
/// few.
pub fn supported_tail(values: &[f64]) -> Option<(u32, f64)> {
    let s = sorted(values);
    [99u32, 95, 90, 75]
        .into_iter()
        .find(|&pct| !s.is_empty() && beyond(s.len(), f64::from(pct) / 100.0) >= MIN_BEYOND)
        .map(|pct| (pct, quantile_sorted(&s, f64::from(pct) / 100.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Deliberately unsorted: n, n-1, …, 1.
        (1..=n).rev().map(|x| x as f64).collect()
    }

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(p50(&[7.0]), 7.0);
        assert_eq!(p50(&[3.0, 1.0]), 1.0);
        assert_eq!(p50(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(p50(&ramp(100)), 50.0);
        assert_eq!(p50(&ramp(101)), 51.0);
    }

    #[test]
    fn quantile_ends() {
        assert_eq!(quantile(&ramp(10), 0.0), 1.0);
        assert_eq!(quantile(&ramp(10), 1.0), 10.0);
        assert_eq!(quantile(&ramp(200), 0.95), 190.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p75 of 39 samples has 9 beyond; of 40 it has 10.
        assert_eq!(supported_tail(&ramp(39)), None);
        assert_eq!(supported_tail(&ramp(40)), Some((75, 30.0)));
        // p90 needs 100, p95 200, p99 1000.
        assert_eq!(supported_tail(&ramp(99)).unwrap().0, 75);
        assert_eq!(supported_tail(&ramp(100)), Some((90, 90.0)));
        assert_eq!(supported_tail(&ramp(199)).unwrap().0, 90);
        assert_eq!(supported_tail(&ramp(200)), Some((95, 190.0)));
        assert_eq!(supported_tail(&ramp(999)).unwrap().0, 95);
        assert_eq!(supported_tail(&ramp(1000)), Some((99, 990.0)));
        assert_eq!(supported_tail(&[]), None);
    }

    #[test]
    fn exact_counts_survive_the_mean() {
        // Counts that repeat exactly must come out exact, not 15.999….
        assert_eq!(mean(&[16.0; 7]), 16.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0]), 1.5);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_timing_is_a_bug() {
        p50(&[]);
    }
}
