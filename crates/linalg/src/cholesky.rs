//! Cholesky factorization of symmetric positive-definite matrices.
//!
//! This is the workhorse of Gaussian-process regression: the posterior mean
//! and variance are both triangular solves against the factor of
//! `K + sigma^2 I`, and the log marginal likelihood needs the
//! log-determinant, which falls out of the factor's diagonal for free.

#![allow(clippy::needless_range_loop)] // offset-indexed triangular loops
use crate::blocked::DEFAULT_BLOCK;
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
    /// factorization retries with exponentially growing diagonal jitter up
    /// to `1e-4 * mean(diag)`. The jitter actually used is reported by
    /// [`Cholesky::jitter`].
    pub fn new(a: &Matrix) -> Result<Self> {
        Self::with_jitter_ladder(a, Self::try_factor)
    }

    /// Factorizes a symmetric positive-definite matrix with a cache-blocked
    /// (tiled) right-looking algorithm.
    ///
    /// Identical contract to [`Cholesky::new`] — same jitter-retry ladder,
    /// same error — but the O(n³) work is organized as block-column panels:
    /// factor a diagonal tile, triangular-solve the panel below it, then
    /// apply the trailing SYRK update tile-by-tile so every tile is reused
    /// from cache. At a few thousand rows this runs several times faster
    /// than the naive loop; the factor agrees with the naive one to
    /// rounding (the trailing updates are regrouped per panel, so
    /// agreement is tolerance-level, not bitwise).
    pub fn new_blocked(a: &Matrix) -> Result<Self> {
        Self::new_tiled(a, DEFAULT_BLOCK)
    }

    /// [`Cholesky::new_blocked`] with `block`-sized tiles; the tests sweep
    /// the tile edge, callers get [`DEFAULT_BLOCK`].
    fn new_tiled(a: &Matrix, block: usize) -> Result<Self> {
        Self::with_jitter_ladder(a, |a, jitter| Self::try_factor_blocked(a, jitter, block))
    }

    /// Runs `try_factor(a, jitter)` with no jitter first, then with
    /// 1e-12 .. 1e-4 of the mean diagonal, one decade per retry.
    fn with_jitter_ladder(
        a: &Matrix,
        try_factor: impl Fn(&Matrix, f64) -> Option<Matrix>,
    ) -> Result<Self> {
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
            if let Some(l) = try_factor(a, jitter) {
                return Ok(Cholesky { l, jitter });
            }
        }
        Err(LinalgError::NotPositiveDefinite)
    }

    /// One blocked factorization attempt; `None` when a pivot is
    /// non-positive. Works on a lower-triangle copy in place: factor the
    /// diagonal tile, panel-solve the rows below, subtract the panel's
    /// outer product from the trailing triangle.
    fn try_factor_blocked(a: &Matrix, jitter: f64, block: usize) -> Option<Matrix> {
        let n = a.rows();
        let b = block.max(1);
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            l.row_mut(i)[..=i].copy_from_slice(&a.row(i)[..=i]);
            l[(i, i)] += jitter;
        }
        for kk in (0..n).step_by(b) {
            let ke = (kk + b).min(n);
            // Factor the diagonal block in place (unblocked, it's small).
            for j in kk..ke {
                let s = crate::vector::dot(&l.row(j)[kk..j], &l.row(j)[kk..j]);
                let d = l[(j, j)] - s;
                if d <= 0.0 || !d.is_finite() {
                    return None;
                }
                let ljj = d.sqrt();
                l[(j, j)] = ljj;
                for i in (j + 1)..ke {
                    let s = crate::vector::dot(&l.row(i)[kk..j], &l.row(j)[kk..j]);
                    l[(i, j)] = (l[(i, j)] - s) / ljj;
                }
            }
            // Panel solve: L21 = A21 * L11⁻ᵀ, row by row against the block.
            for i in ke..n {
                for j in kk..ke {
                    let s = crate::vector::dot(&l.row(i)[kk..j], &l.row(j)[kk..j]);
                    l[(i, j)] = (l[(i, j)] - s) / l[(j, j)];
                }
            }
            if ke == n {
                break;
            }
            // Trailing update: A22 -= L21 * L21ᵀ, tiled over the lower
            // triangle. The panel is copied out once so the tile loops can
            // read it contiguously while writing into `l`.
            let kb = ke - kk;
            let panel = Matrix::from_fn(n - ke, kb, |r, c| l[(ke + r, kk + c)]);
            for ii in (ke..n).step_by(b) {
                let ie = (ii + b).min(n);
                for jj in (ke..=ii).step_by(b) {
                    let je = (jj + b).min(n);
                    for i in ii..ie {
                        let pi = panel.row(i - ke);
                        for j in jj..je.min(i + 1) {
                            let s = crate::vector::dot(pi, panel.row(j - ke));
                            l[(i, j)] -= s;
                        }
                    }
                }
            }
        }
        Some(l)
    }

    /// Single factorization attempt with the given diagonal jitter;
    /// returns `None` when a pivot is non-positive.
    ///
    /// Column by column: the pivot, then the entries below it as
    /// [`CHAINS`] independent dot products that share the pivot row's
    /// loads. Every entry is the same `sum_{k<j} L[i,k] * L[j,k]` the row
    /// loop forms with [`crate::dot`], in the same order, and pivots are
    /// checked in the same order, so the factor and the first failing
    /// pivot are the row loop's bit for bit; the chains only stop each
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

    /// The row loop [`Cholesky::try_factor`] replaced, kept as the oracle
    /// its factor is held bitwise equal to.
    #[cfg(test)]
    fn try_factor_rows(a: &Matrix, jitter: f64) -> Option<Matrix> {
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                // sum_{k<j} L[i,k] * L[j,k]
                let s = crate::vector::dot(&l.row(i)[..j], &l.row(j)[..j]);
                if i == j {
                    let d = a[(i, i)] + jitter - s;
                    if d <= 0.0 || !d.is_finite() {
                        return None;
                    }
                    l[(i, j)] = d.sqrt();
                } else {
                    l[(i, j)] = (a[(i, j)] - s) / l[(j, j)];
                }
            }
        }
        Some(l)
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

    /// Solves `A X = B` column by column.
    fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        if b.rows() != self.dim() {
            return Err(LinalgError::ShapeMismatch {
                context: "cholesky solve: rhs rows must match dimension",
            });
        }
        let mut out = Matrix::zeros(b.rows(), b.cols());
        for j in 0..b.cols() {
            let col = b.col(j);
            let x = self.solve_vec(&col);
            for (i, v) in x.into_iter().enumerate() {
                out[(i, j)] = v;
            }
        }
        Ok(out)
    }

    /// `log det(A) = 2 * sum_i log L[i,i]`.
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// Explicit inverse of `A`. Prefer the `solve_*` methods; the explicit
    /// inverse is only needed by multi-task kernels.
    pub fn inverse(&self) -> Matrix {
        let n = self.dim();
        self.solve_matrix(&Matrix::identity(n))
            .expect("identity always matches dimension") // lint: allow(D5) identity matches the factor dimension
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
    fn inverse_times_matrix_is_identity() {
        let a = spd3();
        let inv = Cholesky::new(&a).unwrap().inverse();
        let eye = a.matmul(&inv).unwrap();
        assert!(eye.approx_eq(&Matrix::identity(3), 1e-8));
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
        let mut a = b.syrk_blocked();
        a.add_diag(n as f64);
        a
    }

    #[test]
    fn blocked_factor_matches_naive_across_block_sizes() {
        // Including blocks of 1, blocks that don't divide n, and blocks
        // larger than n (which degenerates to the unblocked algorithm).
        for n in [1, 2, 7, 33, 64, 97] {
            let a = random_spd(n, 500 + n as u64);
            let naive = Cholesky::new(&a).unwrap();
            for block in [1, 5, 16, 64, 256] {
                let blocked = Cholesky::new_tiled(&a, block).unwrap();
                assert_eq!(blocked.jitter(), 0.0, "n={n} block={block}");
                assert!(
                    blocked.l().approx_eq(naive.l(), 1e-9 * n as f64),
                    "n={n} block={block}: blocked factor diverged from naive"
                );
            }
        }
    }

    #[test]
    fn blocked_factor_reconstructs_and_solves() {
        let a = random_spd(50, 9);
        let c = Cholesky::new_tiled(&a, 16).unwrap();
        let back = c.l().matmul(&c.l().transpose()).unwrap();
        assert!(back.approx_eq(&a, 1e-8));
        let x_true: Vec<f64> = (0..50).map(|i| (i as f64 * 0.7).sin()).collect();
        let b = a.matvec(&x_true).unwrap();
        let x = c.solve_vec(&b);
        for (got, want) in x.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-8);
        }
    }

    #[test]
    fn blocked_factor_rejects_indefinite_and_rescues_semidefinite() {
        let indef = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        assert_eq!(
            Cholesky::new_tiled(&indef, 8).unwrap_err(),
            LinalgError::NotPositiveDefinite
        );
        let psd = Matrix::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        let c = Cholesky::new_tiled(&psd, 8).unwrap();
        assert!(c.jitter() > 0.0);
        let non_square = Matrix::zeros(2, 3);
        assert!(matches!(
            Cholesky::new_tiled(&non_square, 8),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn blocked_factor_extends_like_naive() {
        // A blocked factor must keep working with the O(n²) rank-1
        // extension the incremental GP path uses.
        let a = random_spd(20, 31);
        let lead = Matrix::from_fn(19, 19, |i, j| a[(i, j)]);
        let mut inc = Cholesky::new_tiled(&lead, 7).unwrap();
        let col: Vec<f64> = (0..19).map(|i| a[(i, 19)]).collect();
        inc.extend(&col, a[(19, 19)]).unwrap();
        let full = Cholesky::new(&a).unwrap();
        assert!(inc.l().approx_eq(full.l(), 1e-8));
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

    fn bits(m: &Matrix) -> Vec<u64> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn chained_factor_is_the_row_loop_bit_for_bit() {
        // Around every multiple of the chain width: a well-conditioned
        // matrix, the all-ones matrix (every rung but the first fails
        // before it, so the ladder must land on the same one) and an
        // indefinite matrix (the same error).
        for n in (0..=33).chain([127, 128, 129]) {
            let mut a = random_spd(n, 77 + n as u64);
            let ones = Matrix::from_fn(n, n, |_, _| 1.0);
            for (a, jittered) in [(&a, false), (&ones, n >= 2)] {
                let want = Cholesky::with_jitter_ladder(a, Cholesky::try_factor_rows).unwrap();
                let got = Cholesky::new(a).unwrap();
                assert_eq!(got.jitter() > 0.0, jittered, "n={n}");
                assert_eq!(got.jitter().to_bits(), want.jitter().to_bits(), "n={n}");
                assert_eq!(bits(got.l()), bits(want.l()), "n={n}");
            }
            if n >= 1 {
                a.add_diag(-2.0 * n as f64);
                assert_eq!(
                    Cholesky::new(&a).unwrap_err(),
                    Cholesky::with_jitter_ladder(&a, Cholesky::try_factor_rows).unwrap_err()
                );
            }
        }
    }

    #[test]
    fn solve_matrix_multiple_rhs() {
        let a = spd3();
        let c = Cholesky::new(&a).unwrap();
        let b = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[0.0, 0.0]]);
        let x = c.solve_matrix(&b).unwrap();
        let back = a.matmul(&x).unwrap();
        assert!(back.approx_eq(&b, 1e-8));
    }
}
