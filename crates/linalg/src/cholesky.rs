//! Cholesky factorization of symmetric positive-definite matrices.
//!
//! This is the workhorse of Gaussian-process regression: the posterior mean
//! and variance are both triangular solves against the factor of
//! `K + sigma^2 I`, and the log marginal likelihood needs the
//! log-determinant, which falls out of the factor's diagonal for free.

#![expect(
    clippy::needless_range_loop,
    reason = "offset-indexed triangular loops"
)]
use crate::vector::{chained_dots, CHAINS};
use crate::{LinalgError, Matrix, Result};

/// Lower-triangular Cholesky factor `L` with `A = L * L^T`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Matrix,
    /// Jitter that had to be added to the diagonal for the factorization to
    /// succeed (0.0 when the input was well-conditioned).
    jitter: f64,
}

impl Cholesky {
    /// Factorizes a symmetric positive-definite matrix.
    ///
    /// Kernel matrices are often *numerically* semi-definite (duplicated
    /// trial configurations produce identical rows), so on failure the
    /// factorization retries with exponentially growing diagonal jitter:
    /// none first, then 1e-12 .. 1e-4 of the mean diagonal, one decade per
    /// retry. The jitter actually used is reported by [`Cholesky::jitter`].
    pub fn new(a: &Matrix) -> Result<Self> {
        if !a.is_square() {
            return Err(LinalgError::ShapeMismatch {
                context: "cholesky: matrix must be square",
            });
        }
        let n = a.rows();
        let mean_diag = if n == 0 {
            1.0
        } else {
            a.diag().iter().map(|d| d.abs()).sum::<f64>() / n as f64
        };
        let mut jitter = 0.0;
        for attempt in 0..=9 {
            if attempt > 0 {
                jitter = mean_diag.max(1e-300) * 1e-12 * 10f64.powi(attempt - 1);
            }
            if let Some(l) = Self::try_factor(a, jitter) {
                return Ok(Cholesky { l, jitter });
            }
        }
        Err(LinalgError::NotPositiveDefinite)
    }

    /// Single factorization attempt with the given diagonal jitter;
    /// returns `None` when a pivot is non-positive.
    ///
    /// Column by column: the pivot, then the entries below it as
    /// [`CHAINS`] independent dot products that share the pivot row's
    /// loads. Every entry is the same `sum_{k<j} L[i,k] * L[j,k]` the row
    /// loop forms with [`crate::dot`], in the same order, and pivots are
    /// checked in the same order, so the factor and the first failing
    /// pivot are the row loop's bit for bit (`linalg_props` in the
    /// workspace tests holds it to that loop); the chains only stop each
    /// add from waiting on the one before it.
    fn try_factor(a: &Matrix, jitter: f64) -> Option<Matrix> {
        let n = a.rows();
        // Row-major `L`, split at the pivot row so the rows below it can
        // be written while the pivot row is read.
        let mut l = vec![0.0; n * n];
        for j in 0..n {
            let (head, tail) = l.split_at_mut((j + 1) * n);
            let pivot = &head[j * n..j * n + j];
            let d = a[(j, j)] + jitter - crate::vector::dot(pivot, pivot);
            if d <= 0.0 || !d.is_finite() {
                return None;
            }
            let ljj = d.sqrt();
            head[j * n + j] = ljj;
            let pivot = &head[j * n..j * n + j];
            let mut groups = tail.chunks_exact_mut(n * CHAINS);
            let mut i = j + 1;
            for group in groups.by_ref() {
                let s = chained_dots(std::array::from_fn(|r| &group[r * n..r * n + j]), pivot);
                for (r, s) in s.into_iter().enumerate() {
                    group[r * n + j] = (a[(i + r, j)] - s) / ljj;
                }
                i += CHAINS;
            }
            for (i, row) in (i..).zip(groups.into_remainder().chunks_exact_mut(n)) {
                let s = crate::vector::dot(&row[..j], pivot);
                row[j] = (a[(i, j)] - s) / ljj;
            }
        }
        Some(Matrix::from_vec(n, n, l))
    }

    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Diagonal jitter that was added to make the factorization succeed.
    pub fn jitter(&self) -> f64 {
        self.jitter
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Solves `L y = b` (forward substitution).
    pub fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(b.len(), n, "solve_lower: rhs length mismatch");
        let mut y = vec![0.0; n];
        for i in 0..n {
            let s = crate::vector::dot(&self.l.row(i)[..i], &y[..i]);
            y[i] = (b[i] - s) / self.l[(i, i)];
        }
        y
    }

    /// Solves `L Y = B` for `m` right-hand sides at once.
    ///
    /// `b` holds them interleaved, entry `i` of right-hand side `c` at
    /// `b[i * m + c]`, and the solutions come back in the same layout.
    /// Each column is bit for bit [`Cholesky::solve_lower`] of that
    /// column: groups of eight columns are substituted together, one
    /// `dot`-order chain per column sharing the loads of `L`'s row, and
    /// the columns left over go through `solve_lower` itself.
    ///
    /// # Panics
    /// Panics if `b.len() != self.dim() * m`.
    pub fn solve_lower_many(&self, b: &[f64], m: usize) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(b.len(), n * m, "solve_lower_many: rhs length mismatch");
        let mut y = b.to_vec();
        let grouped = m / CHAINS * CHAINS;
        for c in (0..grouped).step_by(CHAINS) {
            for i in 0..n {
                let li = &self.l.row(i)[..i];
                let mut acc = [-0.0; CHAINS];
                for (k, &lik) in li.iter().enumerate() {
                    let yk = &y[k * m + c..k * m + c + CHAINS];
                    for (a, &v) in acc.iter_mut().zip(yk) {
                        *a += lik * v;
                    }
                }
                let lii = self.l[(i, i)];
                for (v, s) in y[i * m + c..i * m + c + CHAINS].iter_mut().zip(acc) {
                    *v = (*v - s) / lii;
                }
            }
        }
        for c in grouped..m {
            let col: Vec<f64> = (0..n).map(|i| b[i * m + c]).collect();
            for (i, v) in self.solve_lower(&col).into_iter().enumerate() {
                y[i * m + c] = v;
            }
        }
        y
    }

    /// Solves `L^T x = y` (back substitution).
    fn solve_upper(&self, y: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(y.len(), n, "solve_upper: rhs length mismatch");
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = 0.0;
            for k in (i + 1)..n {
                s += self.l[(k, i)] * x[k];
            }
            x[i] = (y[i] - s) / self.l[(i, i)];
        }
        x
    }

    /// Solves `A x = b` via the two triangular solves.
    pub fn solve_vec(&self, b: &[f64]) -> Vec<f64> {
        self.solve_upper(&self.solve_lower(b))
    }

    /// `log det(A) = 2 * sum_i log L[i,i]`.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// Rank-1 *update*: replaces this factor of `A` with the factor of
    /// `A + v vᵀ` in O(n²) (the classic `cholupdate` Givens sweep).
    ///
    /// Unlike [`Cholesky::extend`] the dimension does not change — this is
    /// the workhorse of fixed-size information-matrix maintenance (e.g. a
    /// sparse GP absorbing one observation into `σ²K_mm + Σ k kᵀ`).
    /// Because `v vᵀ` is PSD the update cannot leave the SPD cone, so
    /// failures only arise from non-finite input; on any error the factor
    /// is left exactly as it was.
    pub fn rank_one_update(&mut self, v: &[f64]) -> Result<()> {
        let n = self.dim();
        if v.len() != n {
            return Err(LinalgError::ShapeMismatch {
                context: "cholesky rank_one_update: vector length must match dimension",
            });
        }
        let mut w = v.to_vec();
        let mut l = self.l.clone();
        for j in 0..n {
            let ljj = l[(j, j)];
            let r2 = ljj * ljj + w[j] * w[j];
            // NaN falls through to the finiteness check.
            if r2 <= 0.0 || !r2.is_finite() {
                return Err(LinalgError::NotPositiveDefinite);
            }
            let r = r2.sqrt();
            let c = r / ljj;
            let s = w[j] / ljj;
            l[(j, j)] = r;
            for i in (j + 1)..n {
                let lij = (l[(i, j)] + s * w[i]) / c;
                w[i] = c * w[i] - s * lij;
                l[(i, j)] = lij;
            }
        }
        self.l = l;
        Ok(())
    }

    /// Rank-1 extension: given the factor of the leading n×n principal
    /// submatrix, absorbs one bordering row/column in O(n²).
    ///
    /// `col` holds the off-diagonal covariances `A[0..n, n]` and `diag` the
    /// new diagonal entry `A[n, n]`. The jitter chosen when this factor was
    /// built is applied to the new diagonal entry too, so the extended
    /// factor is exactly the factor of the bordered `A + jitter * I`.
    ///
    /// With `w = L⁻¹ col` and `d = diag + jitter − ‖w‖²`, the new factor row
    /// is `[wᵀ, √d]`. When `d` is non-positive (the new point is linearly
    /// dependent on the existing ones to working precision) the extension
    /// is rejected with [`LinalgError::NotPositiveDefinite`] and the factor
    /// is left untouched — callers should fall back to a full, re-jittered
    /// factorization.
    pub fn extend(&mut self, col: &[f64], diag: f64) -> Result<()> {
        let n = self.dim();
        if col.len() != n {
            return Err(LinalgError::ShapeMismatch {
                context: "cholesky extend: column length must match dimension",
            });
        }
        let w = self.solve_lower(col);
        let d = diag + self.jitter - crate::vector::dot(&w, &w);
        if d <= 0.0 || !d.is_finite() {
            return Err(LinalgError::NotPositiveDefinite);
        }
        let mut l = Matrix::zeros(n + 1, n + 1);
        for i in 0..n {
            l.row_mut(i)[..=i].copy_from_slice(&self.l.row(i)[..=i]);
        }
        l.row_mut(n)[..n].copy_from_slice(&w);
        l[(n, n)] = d.sqrt();
        self.l = l;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        Matrix::from_rows(&[
            &[4.0, 12.0, -16.0],
            &[12.0, 37.0, -43.0],
            &[-16.0, -43.0, 98.0],
        ])
    }

    #[test]
    fn factor_reconstructs_input() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        let back = c.l().matmul(&c.l().transpose()).unwrap();
        assert!(back.approx_eq(&a, 1e-9));
        assert_eq!(c.jitter(), 0.0);
    }

    #[test]
    fn known_factor() {
        // Classic textbook example: L = [[2,0,0],[6,1,0],[-8,5,3]].
        let c = Cholesky::new(&spd3()).unwrap();
        let l = c.l();
        assert!((l[(0, 0)] - 2.0).abs() < 1e-12);
        assert!((l[(1, 0)] - 6.0).abs() < 1e-12);
        assert!((l[(2, 2)] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_recovers_solution() {
        let a = spd3();
        let x_true = vec![1.0, -2.0, 0.5];
        let b = a.matvec(&x_true).unwrap();
        let c = Cholesky::new(&a).unwrap();
        let x = c.solve_vec(&b);
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-9, "got {got}, want {want}");
        }
    }

    #[test]
    fn log_det_matches_direct() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 8.0]]);
        let c = Cholesky::new(&a).unwrap();
        assert!((c.log_det() - (16.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn indefinite_matrix_rejected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert_eq!(
            Cholesky::new(&a).unwrap_err(),
            LinalgError::NotPositiveDefinite
        );
    }

    #[test]
    fn semidefinite_rescued_by_jitter() {
        // Rank-1 matrix: vv^T with v = [1, 1] — singular but PSD.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let c = Cholesky::new(&a).unwrap();
        assert!(c.jitter() > 0.0);
        let back = c.l().matmul(&c.l().transpose()).unwrap();
        assert!(back.approx_eq(&a, 1e-4));
    }

    #[test]
    fn non_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::new(&a),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn extend_matches_from_scratch_on_random_spd() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        // 100 random well-conditioned SPD matrices: factor the leading
        // (n-1)-dimensional principal submatrix, extend by the last
        // row/column, and demand entrywise agreement with a from-scratch
        // factorization of the full matrix.
        for seed in 0..100u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 3 + (seed % 6) as usize;
            let b = Matrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
            let mut a = b.matmul(&b.transpose()).unwrap();
            a.add_diag(n as f64); // keep it far from singular
            let lead = Matrix::from_fn(n - 1, n - 1, |i, j| a[(i, j)]);
            let mut inc = Cholesky::new(&lead).unwrap();
            assert_eq!(inc.jitter(), 0.0, "seed {seed}: unexpected jitter");
            let col: Vec<f64> = (0..n - 1).map(|i| a[(i, n - 1)]).collect();
            inc.extend(&col, a[(n - 1, n - 1)]).unwrap();
            let full = Cholesky::new(&a).unwrap();
            assert!(
                inc.l().approx_eq(full.l(), 1e-10),
                "seed {seed}: incremental factor diverged from scratch"
            );
        }
    }

    #[test]
    fn extend_rejects_linearly_dependent_point() {
        // Bordering [[1]] with a duplicate row gives the singular matrix
        // [[1,1],[1,1]]: the Schur complement d = 1 - 1 = 0 must be
        // rejected and the factor left untouched.
        let mut c = Cholesky::new(&Matrix::from_rows(&[&[1.0]])).unwrap();
        assert_eq!(
            c.extend(&[1.0], 1.0).unwrap_err(),
            LinalgError::NotPositiveDefinite
        );
        assert_eq!(c.dim(), 1, "failed extend must not grow the factor");
        assert!((c.l()[(0, 0)] - 1.0).abs() < 1e-15);
    }

    #[test]
    fn extend_rejects_shape_mismatch_and_nonfinite() {
        let mut c = Cholesky::new(&spd3()).unwrap();
        assert!(matches!(
            c.extend(&[1.0], 1.0),
            Err(LinalgError::ShapeMismatch { .. })
        ));
        assert_eq!(
            c.extend(&[1.0, 2.0, 3.0], f64::NAN).unwrap_err(),
            LinalgError::NotPositiveDefinite
        );
        assert_eq!(c.dim(), 3);
    }

    #[test]
    fn extend_applies_existing_jitter_to_new_diagonal() {
        // A factor that needed jitter keeps using it: the extended factor
        // reconstructs A + jitter * I, not A.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let mut c = Cholesky::new(&a).unwrap();
        let j = c.jitter();
        assert!(j > 0.0);
        c.extend(&[0.5, 0.5], 2.0).unwrap();
        let back = c.l().matmul(&c.l().transpose()).unwrap();
        let mut want = Matrix::from_rows(&[&[1.0, 1.0, 0.5], &[1.0, 1.0, 0.5], &[0.5, 0.5, 2.0]]);
        want.add_diag(j);
        assert!(back.approx_eq(&want, 1e-9));
    }

    fn random_spd(n: usize, seed: u64) -> Matrix {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let b = Matrix::from_fn(n, n, |_, _| rng.gen_range(-1.0..1.0));
        let mut a = b.syrk();
        a.add_diag(n as f64);
        a
    }

    #[test]
    fn rank_one_update_matches_from_scratch() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = 2 + (seed % 7) as usize;
            let a = random_spd(n, 900 + seed);
            let v: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let mut c = Cholesky::new(&a).unwrap();
            c.rank_one_update(&v).unwrap();
            let mut updated = a.clone();
            for i in 0..n {
                for j in 0..n {
                    updated[(i, j)] += v[i] * v[j];
                }
            }
            let scratch = Cholesky::new(&updated).unwrap();
            assert!(
                c.l().approx_eq(scratch.l(), 1e-8 * n as f64),
                "seed {seed}: rank-1 update diverged from scratch factor"
            );
        }
    }

    #[test]
    fn rank_one_update_rejects_bad_input_atomically() {
        let a = spd3();
        let mut c = Cholesky::new(&a).unwrap();
        let before = c.l().clone();
        assert!(matches!(
            c.rank_one_update(&[1.0]),
            Err(LinalgError::ShapeMismatch { .. })
        ));
        assert_eq!(
            c.rank_one_update(&[1.0, f64::NAN, 0.0]).unwrap_err(),
            LinalgError::NotPositiveDefinite
        );
        assert_eq!(
            c.l(),
            &before,
            "failed update must leave the factor untouched"
        );
    }
}
