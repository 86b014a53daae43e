//! Scalar statistics shared across the workspace: means, variances,
//! quantiles, correlation, and the standard-normal CDF/PDF that the
//! acquisition functions need.

/// Arithmetic mean; 0.0 for an empty slice (callers treat empty histories
/// as "no information", and 0.0 composes with the additive estimators).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Unbiased sample variance; 0.0 for fewer than two samples.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Sample standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Median (linear-interpolated); NaN for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q in [0, 1]`; NaN for an empty slice.
///
/// Uses the same convention as numpy's default (`linear`): the quantile of
/// the sorted values at fractional rank `q * (n - 1)`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut sorted = xs.to_vec();
    // total_cmp orders NaN above +inf, so NaN inputs land at the top
    // quantiles deterministically instead of panicking the sort.
    sorted.sort_by(|a, b| a.total_cmp(b));
    let q = q.clamp(0.0, 1.0);
    let rank = q * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// 95th-percentile convenience wrapper (the tutorial's favourite tail
/// metric).
pub fn p95(xs: &[f64]) -> f64 {
    quantile(xs, 0.95)
}

/// Standard normal probability density.
#[inline]
pub fn normal_pdf(z: f64) -> f64 {
    const INV_SQRT_2PI: f64 = 0.398_942_280_401_432_7;
    INV_SQRT_2PI * (-0.5 * z * z).exp()
}

/// Standard normal cumulative distribution function.
///
/// Uses the complementary-error-function identity with the Abramowitz &
/// Stegun 7.1.26 polynomial (max abs error ~1.5e-7, plenty for acquisition
/// functions).
pub fn normal_cdf(z: f64) -> f64 {
    0.5 * erfc(-z * std::f64::consts::FRAC_1_SQRT_2)
}

/// Complementary error function (A&S 7.1.26 polynomial approximation).
fn erfc(x: f64) -> f64 {
    let ax = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * ax);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    let y = poly * (-ax * ax).exp();
    if x >= 0.0 {
        y
    } else {
        2.0 - y
    }
}

/// Welford online mean/variance accumulator, used by the trial-history
/// aggregators so repeated measurements never need to be kept in memory.
#[derive(Debug, Clone, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Feeds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Current mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased variance (0.0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (+inf when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Maximum observation (-inf when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Merges another accumulator into this one (parallel aggregation).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_known() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_interpolates() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert!((median(&xs) - 2.5).abs() < 1e-12);
        assert!((quantile(&xs, 0.0) - 1.0).abs() < 1e-12);
        assert!((quantile(&xs, 1.0) - 4.0).abs() < 1e-12);
        assert!((quantile(&xs, 1.0 / 3.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quantile_empty_is_nan() {
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn p95_of_uniform_grid() {
        let xs: Vec<f64> = (0..101).map(|i| i as f64).collect();
        assert!((p95(&xs) - 95.0).abs() < 1e-9);
    }

    #[test]
    fn normal_cdf_symmetry_and_known_points() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.96) - 0.975).abs() < 1e-3);
        for z in [-2.0, -0.5, 0.3, 1.7] {
            assert!((normal_cdf(z) + normal_cdf(-z) - 1.0).abs() < 1e-7);
        }
    }

    #[test]
    fn normal_pdf_peak() {
        assert!((normal_pdf(0.0) - 0.3989422804).abs() < 1e-9);
        assert!(normal_pdf(1.0) < normal_pdf(0.0));
    }

    #[test]
    fn running_stats_matches_batch() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut rs = RunningStats::new();
        for &x in &xs {
            rs.push(x);
        }
        assert!((rs.mean() - mean(&xs)).abs() < 1e-12);
        assert!((rs.variance() - variance(&xs)).abs() < 1e-12);
        assert_eq!(rs.min(), 1.0);
        assert_eq!(rs.max(), 9.0);
        assert_eq!(rs.count(), 8);
    }

    #[test]
    fn running_stats_merge_matches_combined() {
        let xs = [1.0, 2.0, 3.0];
        let ys = [10.0, 20.0];
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        xs.iter().for_each(|&x| a.push(x));
        ys.iter().for_each(|&y| b.push(y));
        a.merge(&b);
        let all = [1.0, 2.0, 3.0, 10.0, 20.0];
        assert!((a.mean() - mean(&all)).abs() < 1e-12);
        assert!((a.variance() - variance(&all)).abs() < 1e-12);
    }

    #[test]
    fn running_stats_merge_with_empty() {
        let mut a = RunningStats::new();
        a.push(1.0);
        let b = RunningStats::new();
        a.merge(&b);
        assert_eq!(a.count(), 1);
        let mut c = RunningStats::new();
        c.merge(&a);
        assert_eq!(c.count(), 1);
        assert_eq!(c.mean(), 1.0);
    }
}
