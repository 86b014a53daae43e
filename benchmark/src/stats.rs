//! Order statistics for the benchmark's own samples.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice: every metric is built from at least one
/// repetition, so an empty sample is a bug in the caller.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Lower quartile (nearest rank) of `values`: what tail percentiles are
/// reported as. A disturbance only ever lengthens a tail, so across
/// repetitions the quiet end of a p99 repeats far better than its middle.
///
/// # Panics
/// Panics on an empty slice, as [`median`] does.
pub fn lower_quartile(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "lower quartile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[v.len().div_ceil(4) - 1]
}

/// The `q`-quantile (nearest rank) of `samples`, refused with `None`
/// when fewer than ten samples lie beyond it: a tail percentile resting
/// on a handful of samples is noise, not a measurement.
pub fn percentile(samples: &mut [u64], q: f64) -> Option<u64> {
    assert!((0.0..1.0).contains(&q), "quantile {q} outside [0, 1)");
    let n = samples.len();
    let rank = ((n as f64) * q).ceil() as usize;
    let rank = rank.clamp(1, n.max(1));
    if n < rank + 10 {
        return None;
    }
    let (_, v, _) = samples.select_nth_unstable(rank - 1);
    Some(*v)
}

/// Distance between the first and third quartile over the median, as
/// Python's `statistics.quantiles(values, n=4)` (exclusive method)
/// gives them — the acceptance spread of an end-to-end metric.
pub fn quartile_spread(values: &[f64]) -> f64 {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    // Same integer arithmetic as CPython, extrapolation included.
    let at = |i: usize| -> f64 {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(3) - at(1)).abs() / median(&v).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn lower_quartile_is_nearest_rank() {
        assert_eq!(lower_quartile(&[5.0]), 5.0);
        assert_eq!(lower_quartile(&[4.0, 1.0, 3.0, 2.0]), 1.0);
        assert_eq!(lower_quartile(&[5.0, 4.0, 1.0, 3.0, 2.0]), 2.0);
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(lower_quartile(&v), 10.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut s: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&mut s, 0.5), Some(500));
        assert_eq!(percentile(&mut s, 0.99), Some(990));
    }

    #[test]
    fn percentile_refused_without_ten_samples_beyond_it() {
        // p99 of 1 000 samples leaves exactly 10 beyond: accepted.
        let mut ok: Vec<u64> = (1..=1000).collect();
        assert!(percentile(&mut ok, 0.99).is_some());
        // p99 of 999 leaves 9 beyond: refused.
        let mut short: Vec<u64> = (1..=999).collect();
        assert_eq!(percentile(&mut short, 0.99), None);
        // p95 needs 200 samples.
        let mut p95: Vec<u64> = (1..=199).collect();
        assert_eq!(percentile(&mut p95, 0.95), None);
        let mut p95: Vec<u64> = (1..=200).collect();
        assert_eq!(percentile(&mut p95, 0.95), Some(190));
        assert_eq!(percentile(&mut [], 0.5), None);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert!((quartile_spread(&[1.0, 2.0]) - 1.5 / 1.5).abs() < 1e-12);
    }
}
