//! Row-major dense matrix with the handful of operations the autotuning
//! stack needs.

use crate::{LinalgError, Result};
use serde::{Deserialize, Serialize};

/// A dense, row-major `f64` matrix.
///
/// Storage is a single `Vec<f64>` of length `rows * cols`; element `(i, j)`
/// lives at index `i * cols + j`. This layout keeps GP kernel-matrix
/// construction and Cholesky inner loops cache-friendly for the matrix
/// sizes we care about (a few hundred rows).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Creates a matrix from row slices. All rows must have equal length.
    ///
    /// # Panics
    /// Panics if rows have differing lengths.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows passed to Matrix::from_rows");
            data.extend_from_slice(row);
        }
        Matrix {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Creates a matrix from a function of `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Creates a diagonal matrix from the given diagonal entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let n = diag.len();
        let mut m = Matrix::zeros(n, n);
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow of the flat row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Borrow of row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutable borrow of row `i` as a slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy of column `j`.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Copy of the main diagonal.
    pub fn diag(&self) -> Vec<f64> {
        (0..self.rows.min(self.cols))
            .map(|i| self[(i, i)])
            .collect()
    }

    /// Sum of the main diagonal.
    pub fn trace(&self) -> f64 {
        self.diag().iter().sum()
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// Matrix product `self * other`.
    ///
    /// Uses an ikj loop order so the inner loop streams over contiguous
    /// rows of both the output and `other`.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::ShapeMismatch {
                context: "matmul: self.cols must equal other.rows",
            });
        }
        // The zero-skip fast path is only sound when `other` is entirely
        // finite: IEEE gives `0.0 * NaN = NaN` and `0.0 * inf = NaN`, so
        // skipping a zero row against a non-finite operand would silently
        // replace a NaN result with 0. One upfront scan keeps the skip
        // O(1) per row instead of re-checking inside the hot loop.
        let other_finite = other.data.iter().all(|v| v.is_finite());
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let aik = self[(i, k)];
                if aik == 0.0 && other_finite {
                    continue;
                }
                let orow = other.row(k);
                let outrow = out.row_mut(i);
                for (o, &b) in outrow.iter_mut().zip(orow) {
                    *o += aik * b;
                }
            }
        }
        Ok(out)
    }

    /// Symmetric rank-k product `self * selfᵀ` (SYRK).
    ///
    /// Forms the lower triangle, each entry one [`crate::dot`] of two rows
    /// in ascending column order, and mirrors it: half the multiplies of a
    /// general product, and on finite inputs the same floats as
    /// `self.matmul(&self.transpose())` (an exact zero may differ in sign).
    pub fn syrk(&self) -> Matrix {
        let n = self.rows;
        let mut out = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let s = crate::vector::dot(self.row(i), self.row(j));
                out[(i, j)] = s;
                out[(j, i)] = s;
            }
        }
        out
    }

    /// Matrix-vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if self.cols != v.len() {
            return Err(LinalgError::ShapeMismatch {
                context: "matvec: self.cols must equal v.len()",
            });
        }
        Ok((0..self.rows)
            .map(|i| crate::vector::dot(self.row(i), v))
            .collect())
    }

    /// Elementwise sum `self + other`.
    pub fn add(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, |a, b| a + b, "add: shapes must match")
    }

    /// Elementwise difference `self - other`.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, |a, b| a - b, "sub: shapes must match")
    }

    fn zip_with(
        &self,
        other: &Matrix,
        f: impl Fn(f64, f64) -> f64,
        context: &'static str,
    ) -> Result<Matrix> {
        if self.rows != other.rows || self.cols != other.cols {
            return Err(LinalgError::ShapeMismatch { context });
        }
        let data = self
            .data
            .iter()
            .zip(&other.data)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data,
        })
    }

    /// Returns `self` scaled by `s`.
    pub fn scale(&self, s: f64) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| x * s).collect(),
        }
    }

    /// Adds `v` to each diagonal entry in place (e.g. observation noise or
    /// Cholesky jitter).
    pub fn add_diag(&mut self, v: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += v;
        }
    }

    /// The Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Largest absolute entry (infinity norm of the flattened matrix).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0_f64, |m, &x| m.max(x.abs()))
    }

    /// True when `self` and `other` agree entrywise within `tol`.
    pub fn approx_eq(&self, other: &Matrix, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }

    /// True when the matrix is symmetric within `tol`.
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        for i in 0..self.rows {
            for j in (i + 1)..self.cols {
                if (self[(i, j)] - self[(j, i)]).abs() > tol {
                    return false;
                }
            }
        }
        true
    }

    /// Stacks `rows` (each of length `cols`) into a matrix; the design-matrix
    /// constructor used throughout the surrogate models.
    pub fn from_row_vectors(rows: &[Vec<f64>]) -> Self {
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Matrix::from_rows(&refs)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(
            i < self.rows && j < self.cols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[i * self.cols + j]
    }
}

impl std::fmt::Display for Matrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for i in 0..self.rows {
            for j in 0..self.cols {
                if j > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:10.4}", self[(i, j)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[7.0, 8.0], &[9.0, 10.0], &[11.0, 12.0]]);
        let c = a.matmul(&b).unwrap();
        let expected = Matrix::from_rows(&[&[58.0, 64.0], &[139.0, 154.0]]);
        assert!(c.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn matmul_shape_mismatch_is_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn matmul_zero_times_nonfinite_propagates() {
        // Regression: the zero-skip fast path used to silently drop
        // non-finite entries of `other` — `0 * NaN` and `0 * inf` must
        // produce NaN, exactly as an unskipped IEEE accumulation would.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[2.0, 0.0]]);
        let b = Matrix::from_rows(&[&[f64::NAN, 5.0], &[6.0, f64::INFINITY]]);
        let c = a.matmul(&b).unwrap();
        assert!(c[(0, 0)].is_nan(), "0*NaN + 1*6 must be NaN");
        assert!(c[(0, 1)].is_infinite(), "0*5 + 1*inf is inf");
        assert!(c[(1, 0)].is_nan(), "2*NaN + 0*6 must be NaN");
        assert!(c[(1, 1)].is_nan(), "2*5 + 0*inf must be NaN");
    }

    #[test]
    fn matmul_zero_skip_still_exact_on_finite_operands() {
        // A zero-heavy left operand against a finite right operand must
        // give the exact same result the dense accumulation would.
        let a = Matrix::from_rows(&[&[0.0, 0.0, 3.0], &[0.0, 2.0, 0.0]]);
        let b = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let c = a.matmul(&b).unwrap();
        let expected = Matrix::from_rows(&[&[15.0, 18.0], &[6.0, 8.0]]);
        assert!(c.approx_eq(&expected, 0.0));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let v = vec![5.0, 6.0];
        let got = a.matvec(&v).unwrap();
        assert_eq!(got, vec![17.0, 39.0]);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[0.5, 0.5], &[0.5, 0.5]]);
        let back = a.add(&b).unwrap().sub(&b).unwrap();
        assert!(back.approx_eq(&a, 1e-12));
    }

    #[test]
    fn diag_trace_and_add_diag() {
        let mut a = Matrix::from_rows(&[&[1.0, 9.0], &[9.0, 2.0]]);
        assert_eq!(a.diag(), vec![1.0, 2.0]);
        assert_eq!(a.trace(), 3.0);
        a.add_diag(0.5);
        assert_eq!(a.diag(), vec![1.5, 2.5]);
    }

    #[test]
    fn symmetry_check() {
        let s = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let ns = Matrix::from_rows(&[&[2.0, 1.0], &[0.0, 2.0]]);
        assert!(s.is_symmetric(1e-12));
        assert!(!ns.is_symmetric(1e-12));
        assert!(!Matrix::zeros(2, 3).is_symmetric(1e-12));
    }

    #[test]
    fn display_does_not_panic() {
        let a = Matrix::identity(3);
        let s = format!("{a}");
        assert!(s.contains("1.0000"));
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        let _ = Matrix::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    fn serde_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let json = serde_json::to_string(&a).unwrap();
        let back: Matrix = serde_json::from_str(&json).unwrap();
        assert_eq!(a, back);
    }
}
