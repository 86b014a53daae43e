//! Sparse Gaussian-process regression over inducing points.
//!
//! The dense [`crate::GaussianProcess`] pays O(n²) per incremental observe
//! and O(n³) per refit, which dies well before the 100k observations a
//! long-running service campaign accumulates. This module implements the
//! subset-of-regressors / DTC approximation: pick `m ≪ n` *inducing points*
//! `Z` from the training set and summarize the data through the m-vector
//! statistics
//!
//! ```text
//! A = σ² (K_mm + jitter·I) + Σᵢ kᵢ kᵢᵀ        (kᵢ = k(Z, xᵢ))
//! b = Σᵢ kᵢ yᵢ
//! mean(x) = k_m(x)ᵀ A⁻¹ b
//! var(x)  = k(x,x) − k_mᵀ K_mm⁻¹ k_m + σ² k_mᵀ A⁻¹ k_m
//! ```
//!
//! so suggest-time prediction is O(m²) and an incremental observe is a
//! rank-1 Cholesky update of `A` plus two triangular solves — O(m²),
//! *independent of n*. Inducing points are chosen by deterministic
//! farthest-point selection and re-selected only at doubling thresholds,
//! so total maintenance cost over n observations is O(n · m²) amortized.
//!
//! Targets are standardized like the dense GP. Because both `A` and `b`
//! are linear in the data, the standardized right-hand side is recovered
//! from raw accumulators in O(m): `b_std = (b_raw − μ · k_sum) / σ_y`
//! with `k_sum = Σᵢ kᵢ`, and the target moments (μ, σ_y) are maintained
//! as running sums — no O(n) pass per observe.

use crate::{check_training_set, Kernel, Prediction, Result, Surrogate, SurrogateError};
use autotune_linalg::{Cholesky, Matrix};

/// Observation-noise variance σ² added to the model.
const NOISE: f64 = 1e-6;
/// Diagonal jitter added to `K_mm` for numerical stability.
const JITTER: f64 = 1e-8;
/// Rows streamed per block when (re)building `A`: bounds peak memory of a
/// full rebuild to O(m · CHUNK).
const CHUNK: usize = 512;

/// Fitted state of the sparse GP, committed atomically by rebuilds.
struct SparseFit {
    /// Inducing inputs `Z` (row-major, m rows).
    z: Vec<Vec<f64>>,
    /// Cholesky of `K_mm + jitter·I`.
    kmm_chol: Cholesky,
    /// Cholesky of `A = σ²(K_mm + jitter·I) + Σ kᵢkᵢᵀ`.
    a_chol: Cholesky,
    /// Raw data statistic `b_raw = Σ kᵢ yᵢ` (un-standardized).
    b_raw: Vec<f64>,
    /// `k_sum = Σ kᵢ`, for O(m) re-standardization of `b`.
    k_sum: Vec<f64>,
    /// `A⁻¹ b_std`, refreshed after every observe.
    alpha: Vec<f64>,
}

/// A sparse (inducing-point) Gaussian process with O(m²) predictions and
/// O(m²) incremental observes, independent of the training-set size.
pub struct SparseGaussianProcess {
    kernel: Box<dyn Kernel>,
    /// Maximum number of inducing points `m`.
    max_inducing: usize,
    xs: Vec<Vec<f64>>,
    y_raw: Vec<f64>,
    /// Running Σy and Σy² for O(1) standardization moments.
    y_sum: f64,
    y_sq: f64,
    /// Standardization parameters (mean, std) of the raw targets.
    y_shift: (f64, f64),
    fit: Option<SparseFit>,
    /// Re-select inducing points (full rebuild) when `n` reaches this.
    refit_at: usize,
}

impl std::fmt::Debug for SparseGaussianProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SparseGaussianProcess")
            .field("kernel", &self.kernel)
            .field("n_train", &self.xs.len())
            .field(
                "n_inducing",
                &self.fit.as_ref().map_or(0, |fit| fit.z.len()),
            )
            .finish()
    }
}

impl SparseGaussianProcess {
    /// Creates an unfitted sparse GP with the given kernel and at most
    /// `max_inducing` inducing points. Prediction is O(m²) in them.
    pub fn new(kernel: Box<dyn Kernel>, max_inducing: usize) -> Self {
        assert!(max_inducing >= 1, "need at least one inducing point");
        SparseGaussianProcess {
            kernel,
            max_inducing,
            xs: Vec::new(),
            y_raw: Vec::new(),
            y_sum: 0.0,
            y_sq: 0.0,
            y_shift: (0.0, 1.0),
            fit: None,
            refit_at: 1,
        }
    }

    /// The kernel currently in use.
    pub fn kernel(&self) -> &dyn Kernel {
        self.kernel.as_ref()
    }

    /// Standardization moments from the running sums. With fewer than two
    /// points (or a degenerate spread) the std falls back to 1.0, matching
    /// the dense GP's guard.
    fn moments(&self) -> (f64, f64) {
        let n = self.y_raw.len();
        if n == 0 {
            return (0.0, 1.0);
        }
        let mean = self.y_sum / n as f64;
        if n < 2 {
            return (mean, 1.0);
        }
        let var = ((self.y_sq - self.y_sum * mean) / (n - 1) as f64).max(0.0);
        let std = var.sqrt();
        (mean, if std > 1e-12 { std } else { 1.0 })
    }

    /// Deterministic farthest-point selection of `m` inducing indices:
    /// start from the point nearest the centroid, then repeatedly add the
    /// point with the largest min-distance to the selected set. Ties break
    /// toward the lowest index, so the selection is a pure function of the
    /// training set.
    fn select_inducing(xs: &[Vec<f64>], m: usize) -> Vec<usize> {
        let n = xs.len();
        let m = m.min(n);
        if m == 0 {
            return Vec::new();
        }
        let d = xs[0].len();
        let mut centroid = vec![0.0; d];
        for x in xs {
            for (c, &v) in centroid.iter_mut().zip(x) {
                *c += v;
            }
        }
        for c in &mut centroid {
            *c /= n as f64;
        }
        let mut first = 0usize;
        let mut best = f64::INFINITY;
        for (i, x) in xs.iter().enumerate() {
            let dist = autotune_linalg::squared_distance(x, &centroid);
            if dist.total_cmp(&best) == std::cmp::Ordering::Less {
                best = dist;
                first = i;
            }
        }
        let mut selected = vec![first];
        // min squared distance from each point to the selected set
        let mut min_dist: Vec<f64> = xs
            .iter()
            .map(|x| autotune_linalg::squared_distance(x, &xs[first]))
            .collect();
        while selected.len() < m {
            let mut next = 0usize;
            let mut far = f64::NEG_INFINITY;
            for (i, &dist) in min_dist.iter().enumerate() {
                if dist.total_cmp(&far) == std::cmp::Ordering::Greater {
                    far = dist;
                    next = i;
                }
            }
            selected.push(next);
            for (md, x) in min_dist.iter_mut().zip(xs) {
                let dist = autotune_linalg::squared_distance(x, &xs[next]);
                if dist < *md {
                    *md = dist;
                }
            }
        }
        selected
    }

    /// Cross-covariance vector `k(Z, x)` against the inducing set.
    fn k_vec(fit: &SparseFit, kernel: &dyn Kernel, x: &[f64]) -> Vec<f64> {
        fit.z.iter().map(|z| kernel.eval(z, x)).collect()
    }

    /// Rebuilds the whole fitted state from the stored training data:
    /// re-selects inducing points, streams the data through SYRK
    /// to form `A`, and factorizes. All state is assembled locally and
    /// committed only on success, so a failed rebuild leaves the model
    /// exactly as it was.
    fn rebuild(&mut self) -> Result<()> {
        let n = self.xs.len();
        let m = self.max_inducing.min(n);
        let idx = Self::select_inducing(&self.xs, m);
        let z: Vec<Vec<f64>> = idx.iter().map(|&i| self.xs[i].clone()).collect();
        let mut kmm = Matrix::from_fn(m, m, |i, j| {
            if j < i {
                0.0 // filled by symmetry below
            } else {
                self.kernel.eval(&z[i], &z[j])
            }
        });
        for i in 0..m {
            for j in 0..i {
                kmm[(i, j)] = kmm[(j, i)];
            }
        }
        kmm.add_diag(JITTER);
        let kmm_chol = Cholesky::new(&kmm).map_err(|_| SurrogateError::NumericalFailure)?;
        // A starts as σ²(K_mm + jitter·I); the data term streams in chunks
        // so a 100k-point rebuild never materializes an m×n matrix.
        let mut a = kmm.scale(NOISE);
        let mut b_raw = vec![0.0; m];
        let mut k_sum = vec![0.0; m];
        for start in (0..n).step_by(CHUNK) {
            let end = (start + CHUNK).min(n);
            let g = Matrix::from_fn(m, end - start, |p, r| {
                self.kernel.eval(&z[p], &self.xs[start + r])
            });
            a = a
                .add(&g.syrk())
                .map_err(|_| SurrogateError::NumericalFailure)?;
            for r in 0..end - start {
                let y = self.y_raw[start + r];
                for p in 0..m {
                    b_raw[p] += g[(p, r)] * y;
                    k_sum[p] += g[(p, r)];
                }
            }
        }
        let a_chol = Cholesky::new(&a).map_err(|_| SurrogateError::NumericalFailure)?;
        let (mean, std) = self.moments();
        let b_std: Vec<f64> = b_raw
            .iter()
            .zip(&k_sum)
            .map(|(&b, &ks)| (b - mean * ks) / std)
            .collect();
        let alpha = a_chol.solve_vec(&b_std);
        self.y_shift = (mean, std);
        self.fit = Some(SparseFit {
            z,
            kmm_chol,
            a_chol,
            b_raw,
            k_sum,
            alpha,
        });
        // Next inducing re-selection when the data has doubled.
        self.refit_at = (2 * n).max(4);
        Ok(())
    }

    /// Predictive distribution at `x` in the *standardized* target space.
    fn predict_std(&self, x: &[f64]) -> Prediction {
        let Some(fit) = &self.fit else {
            return Prediction {
                mean: 0.0,
                variance: self.kernel.diag(x),
            };
        };
        let k = Self::k_vec(fit, self.kernel.as_ref(), x);
        let mean = autotune_linalg::dot(&k, &fit.alpha);
        let v_mm = fit.kmm_chol.solve_lower(&k);
        let v_a = fit.a_chol.solve_lower(&k);
        let variance = (self.kernel.diag(x) - autotune_linalg::dot(&v_mm, &v_mm)
            + NOISE * autotune_linalg::dot(&v_a, &v_a))
        .max(0.0);
        Prediction { mean, variance }
    }
}

impl Surrogate for SparseGaussianProcess {
    fn fit(&mut self, xs: &[Vec<f64>], ys: &[f64]) -> Result<()> {
        check_training_set(xs, ys)?;
        let saved = (
            std::mem::take(&mut self.xs),
            std::mem::take(&mut self.y_raw),
            self.y_sum,
            self.y_sq,
        );
        self.xs = xs.to_vec();
        self.y_raw = ys.to_vec();
        self.y_sum = ys.iter().sum();
        self.y_sq = ys.iter().map(|y| y * y).sum();
        if let Err(e) = self.rebuild() {
            // Restore the previous training set; the old fit (if any) was
            // never touched by the failed rebuild.
            (self.xs, self.y_raw, self.y_sum, self.y_sq) = saved;
            return Err(e);
        }
        Ok(())
    }

    fn predict(&self, x: &[f64]) -> Prediction {
        let p = self.predict_std(x);
        let (ym, ys) = self.y_shift;
        Prediction {
            mean: ym + ys * p.mean,
            variance: ys * ys * p.variance,
        }
    }

    fn n_train(&self) -> usize {
        self.xs.len()
    }

    /// O(m²) incremental update, independent of n: rank-1 updates the
    /// factor of `A` with the new cross-covariance vector, folds the point
    /// into the O(m) data statistics, and refreshes `alpha` with one
    /// triangular solve pair. Inducing points are re-selected (full
    /// rebuild) only when the training set doubles.
    fn observe(&mut self, x: &[f64], y: f64) -> Result<()> {
        if self.xs.is_empty() {
            return self.fit(&[x.to_vec()], &[y]);
        }
        if x.len() != self.xs[0].len() {
            return Err(SurrogateError::DimensionMismatch {
                context: format!(
                    "observe: point has dimension {} (expected {})",
                    x.len(),
                    self.xs[0].len()
                ),
            });
        }
        if x.iter().any(|v| !v.is_finite()) {
            return Err(SurrogateError::DimensionMismatch {
                context: "observe: point contains non-finite values".into(),
            });
        }
        if !y.is_finite() {
            return Err(SurrogateError::NonFiniteTarget);
        }
        {
            let fit = self.fit.as_mut().ok_or(SurrogateError::NumericalFailure)?;
            let k: Vec<f64> = fit.z.iter().map(|z| self.kernel.eval(z, x)).collect();
            // The rank-1 update is atomic-on-failure, so an error here
            // leaves the model untouched.
            fit.a_chol
                .rank_one_update(&k)
                .map_err(|_| SurrogateError::NumericalFailure)?;
            for ((b, ks), &kv) in fit.b_raw.iter_mut().zip(&mut fit.k_sum).zip(&k) {
                *b += kv * y;
                *ks += kv;
            }
        }
        self.xs.push(x.to_vec());
        self.y_raw.push(y);
        self.y_sum += y;
        self.y_sq += y * y;
        let (mean, std) = self.moments();
        self.y_shift = (mean, std);
        let fit = self.fit.as_mut().ok_or(SurrogateError::NumericalFailure)?;
        let b_std: Vec<f64> = fit
            .b_raw
            .iter()
            .zip(&fit.k_sum)
            .map(|(&b, &ks)| (b - mean * ks) / std)
            .collect();
        fit.alpha = fit.a_chol.solve_vec(&b_std);
        if self.xs.len() >= self.refit_at {
            // Re-select inducing points against the doubled data. If the
            // rebuild fails the rank-1-updated fit above is still fully
            // consistent, so keep it and retry at the next threshold.
            let n = self.xs.len();
            if self.rebuild().is_err() {
                self.refit_at = (2 * n).max(4);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GaussianProcess, Matern52};

    fn grid_data(n: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..n)
            .map(|i| {
                let t = i as f64 / (n - 1) as f64;
                vec![t, (0.37 * i as f64).sin().abs()]
            })
            .collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|x| (4.0 * x[0]).sin() + 0.5 * x[1] + 2.0)
            .collect();
        (xs, ys)
    }

    fn sparse(max_inducing: usize) -> SparseGaussianProcess {
        SparseGaussianProcess::new(Box::new(Matern52::ard(vec![0.4, 0.4], 1.0)), max_inducing)
    }

    #[test]
    fn matches_dense_gp_when_all_points_are_inducing() {
        // With m = n the SoR approximation is exact: the predictive mean
        // must agree with the dense GP to numerical precision.
        let (xs, ys) = grid_data(30);
        let mut sp = sparse(30);
        sp.fit(&xs, &ys).unwrap();
        let mut dense = GaussianProcess::new(Box::new(Matern52::ard(vec![0.4, 0.4], 1.0)), 1e-6);
        dense.fit(&xs, &ys).unwrap();
        for q in [[0.1, 0.2], [0.5, 0.5], [0.9, 0.1]] {
            let a = sp.predict(&q);
            let b = dense.predict(&q);
            assert!(
                (a.mean - b.mean).abs() < 1e-4,
                "mean at {q:?}: {} vs {}",
                a.mean,
                b.mean
            );
        }
    }

    #[test]
    fn the_inducing_factor_is_the_chained_cholesky_bit_for_bit() {
        // m = 100 is past one 64-row tile, so a factor that regrouped its
        // sums tile by tile would fail here.
        let (xs, ys) = grid_data(200);
        let mut sp = sparse(100);
        sp.fit(&xs, &ys).unwrap();
        let fit = sp.fit.as_ref().unwrap();
        assert_eq!(fit.z.len(), 100);
        let mut kmm = Matrix::from_fn(100, 100, |i, j| {
            sp.kernel.eval(&fit.z[i.min(j)], &fit.z[i.max(j)])
        });
        kmm.add_diag(JITTER);
        let want = Cholesky::new(&kmm).unwrap();
        assert_eq!(fit.kmm_chol.jitter().to_bits(), want.jitter().to_bits());
        let (got, want) = (fit.kmm_chol.l().as_slice(), want.l().as_slice());
        assert_eq!(got.len(), want.len());
        let moved = got
            .iter()
            .zip(want)
            .filter(|(a, b)| a.to_bits() != b.to_bits())
            .count();
        assert_eq!(moved, 0, "{moved} of {} factor entries differ", got.len());
    }

    #[test]
    fn tracks_dense_quality_with_few_inducing_points() {
        let (xs, ys) = grid_data(200);
        let mut sp = sparse(24);
        sp.fit(&xs, &ys).unwrap();
        assert_eq!(sp.fit.as_ref().map_or(0, |fit| fit.z.len()), 24);
        for q in [[0.25f64, 0.3], [0.6, 0.8]] {
            let truth = (4.0 * q[0]).sin() + 0.5 * q[1] + 2.0;
            let p = sp.predict(&q);
            assert!(
                (p.mean - truth).abs() < 0.1,
                "mean {} vs truth {truth}",
                p.mean
            );
        }
    }

    #[test]
    fn incremental_observe_matches_batch_fit() {
        let (xs, ys) = grid_data(60);
        let mut inc = sparse(16);
        for (x, &y) in xs.iter().zip(&ys) {
            inc.observe(x, y).unwrap();
        }
        let mut batch = sparse(16);
        batch.fit(&xs, &ys).unwrap();
        assert_eq!(inc.n_train(), batch.n_train());
        // The incremental model last re-selected inducing points at a
        // doubling threshold ≤ n, so the two inducing sets differ and the
        // posteriors are not identical — but both must track the smooth
        // ground truth.
        for q in [[0.2f64, 0.4], [0.55, 0.6], [0.8, 0.2]] {
            let truth = (4.0 * q[0]).sin() + 0.5 * q[1] + 2.0;
            for (tag, model) in [("inc", &inc), ("batch", &batch)] {
                let p = model.predict(&q);
                assert!(
                    (p.mean - truth).abs() < 0.25,
                    "{tag} mean at {q:?}: {} vs truth {truth}",
                    p.mean
                );
            }
        }
    }

    #[test]
    fn variance_shrinks_near_data_and_grows_far_away() {
        let (xs, ys) = grid_data(80);
        let mut sp = sparse(32);
        sp.fit(&xs, &ys).unwrap();
        let near = sp.predict(&xs[40]).variance;
        let far = sp.predict(&[5.0, 5.0]).variance;
        assert!(far > 10.0 * near.max(1e-10), "far {far} vs near {near}");
    }

    #[test]
    fn unfitted_returns_prior_and_single_point_bootstraps() {
        let mut sp = sparse(8);
        let p = sp.predict(&[0.3, 0.3]);
        assert_eq!(p.mean, 0.0);
        assert_eq!(sp.n_train(), 0);
        sp.observe(&[0.5, 0.5], 3.0).unwrap();
        assert_eq!(sp.n_train(), 1);
        assert_eq!(sp.fit.as_ref().map_or(0, |fit| fit.z.len()), 1);
        let p = sp.predict(&[0.5, 0.5]);
        assert!((p.mean - 3.0).abs() < 0.5, "mean {}", p.mean);
    }

    #[test]
    fn observe_rejects_bad_input_without_mutating() {
        let (xs, ys) = grid_data(20);
        let mut sp = sparse(8);
        sp.fit(&xs, &ys).unwrap();
        let before = sp.predict(&[0.4, 0.4]);
        assert!(matches!(
            sp.observe(&[0.1], 1.0),
            Err(SurrogateError::DimensionMismatch { .. })
        ));
        assert_eq!(
            sp.observe(&[0.3, 0.3], f64::NAN).unwrap_err(),
            SurrogateError::NonFiniteTarget
        );
        assert!(matches!(
            sp.observe(&[f64::INFINITY, 0.0], 1.0),
            Err(SurrogateError::DimensionMismatch { .. })
        ));
        assert_eq!(sp.n_train(), xs.len());
        assert_eq!(sp.predict(&[0.4, 0.4]), before);
    }

    #[test]
    fn inducing_selection_is_deterministic_and_spread_out() {
        let (xs, _) = grid_data(100);
        let a = SparseGaussianProcess::select_inducing(&xs, 10);
        let b = SparseGaussianProcess::select_inducing(&xs, 10);
        assert_eq!(a, b);
        let unique: std::collections::BTreeSet<usize> = a.iter().copied().collect();
        assert_eq!(unique.len(), 10, "farthest-point picks distinct indices");
    }

    #[test]
    fn standardization_handles_large_offsets() {
        let (xs, ys) = grid_data(50);
        let shifted: Vec<f64> = ys.iter().map(|y| 1.0e6 + 1.0e4 * y).collect();
        let mut sp = sparse(50);
        sp.fit(&xs, &shifted).unwrap();
        let p = sp.predict(&[0.5, 0.5]);
        let truth = 1.0e6 + 1.0e4 * ((2.0f64).sin() + 0.25 + 2.0);
        assert!((p.mean - truth).abs() < 2e4, "mean {}", p.mean);
    }
}
