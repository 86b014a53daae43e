//! Principal component analysis on top of the Jacobi eigendecomposition.
//!
//! Workload-identification embeddings (the `autotune-wid` crate) project
//! high-dimensional telemetry feature vectors onto the leading principal
//! components; this module provides the fit/transform pair.

use crate::{eigen::symmetric_eigen, LinalgError, Matrix, Result};

/// A fitted PCA model: per-feature means plus the leading principal axes.
#[derive(Debug, Clone)]
pub struct Pca {
    mean: Vec<f64>,
    /// `k x d` matrix; row `i` is the i-th principal axis.
    components: Matrix,
}

impl Pca {
    /// Fits a PCA keeping `k` components on `data` (rows are samples).
    ///
    /// `k` is clamped to the number of features. Requires at least two
    /// samples (variance is undefined otherwise).
    pub fn fit(data: &Matrix, k: usize) -> Result<Self> {
        let (n, d) = (data.rows(), data.cols());
        if n < 2 || d == 0 {
            return Err(LinalgError::ShapeMismatch {
                context: "pca: need at least 2 samples and 1 feature",
            });
        }
        let k = k.min(d);
        // Column means.
        let mut mean = vec![0.0; d];
        for i in 0..n {
            crate::vector::axpy(1.0, data.row(i), &mut mean);
        }
        for m in mean.iter_mut() {
            *m /= n as f64;
        }
        // Covariance matrix (d x d).
        let mut cov = Matrix::zeros(d, d);
        for i in 0..n {
            let row = data.row(i);
            for a in 0..d {
                let da = row[a] - mean[a];
                for b in a..d {
                    cov[(a, b)] += da * (row[b] - mean[b]);
                }
            }
        }
        let denom = (n - 1) as f64;
        for a in 0..d {
            for b in a..d {
                cov[(a, b)] /= denom;
                cov[(b, a)] = cov[(a, b)];
            }
        }
        let eig = symmetric_eigen(&cov)?;
        // Components as rows: transpose of the leading eigenvector columns.
        let components = Matrix::from_fn(k, d, |i, j| eig.vectors[(j, i)]);
        Ok(Pca { mean, components })
    }

    /// Number of retained components.
    fn n_components(&self) -> usize {
        self.components.rows()
    }

    /// Projects one sample into the component space.
    pub fn transform_one(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(
            x.len(),
            self.mean.len(),
            "pca transform: feature count mismatch"
        );
        let centered: Vec<f64> = x.iter().zip(&self.mean).map(|(&v, &m)| v - m).collect();
        (0..self.n_components())
            .map(|i| crate::vector::dot(self.components.row(i), &centered))
            .collect()
    }

    /// Projects every row of `data` into the component space.
    pub fn transform(&self, data: &Matrix) -> Matrix {
        let rows: Vec<Vec<f64>> = (0..data.rows())
            .map(|i| self.transform_one(data.row(i)))
            .collect();
        Matrix::from_row_vectors(&rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Data lying exactly on a line in 2-D: the first component carries
    /// all of it, so every sample's second coordinate is zero.
    #[test]
    fn line_data_one_component() {
        let data = Matrix::from_fn(10, 2, |i, j| {
            let t = i as f64;
            if j == 0 {
                t
            } else {
                2.0 * t + 3.0
            }
        });
        let projected = Pca::fit(&data, 2).unwrap().transform(&data);
        for i in 0..10 {
            assert!(projected[(i, 1)].abs() < 1e-6, "row {i} leaves the line");
        }
        assert!((projected[(9, 0)] - projected[(0, 0)]).abs() > 9.0);
    }

    #[test]
    fn transform_centers_data() {
        let data = Matrix::from_rows(&[&[1.0, 10.0], &[3.0, 14.0]]);
        let pca = Pca::fit(&data, 2).unwrap();
        // The two projected points must be symmetric around the origin.
        let p0 = pca.transform_one(data.row(0));
        let p1 = pca.transform_one(data.row(1));
        for (a, b) in p0.iter().zip(&p1) {
            assert!((a + b).abs() < 1e-10);
        }
    }

    #[test]
    fn k_clamped_to_features() {
        let data = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0], &[0.0, 3.0]]);
        let pca = Pca::fit(&data, 10).unwrap();
        assert_eq!(pca.n_components(), 2);
    }

    #[test]
    fn variance_preserved_under_full_projection() {
        let data = Matrix::from_rows(&[
            &[1.0, 0.5, 0.1],
            &[2.0, 1.5, -0.3],
            &[0.5, 2.5, 0.9],
            &[1.5, 1.0, 0.2],
        ]);
        // Keeping every component is a rotation about the mean: distances
        // between samples survive it.
        let projected = Pca::fit(&data, 3).unwrap().transform(&data);
        for (i, j) in [(0, 1), (1, 2), (0, 3)] {
            let before = crate::vector::squared_distance(data.row(i), data.row(j));
            let after = crate::vector::squared_distance(projected.row(i), projected.row(j));
            assert!(
                (before - after).abs() < 1e-9,
                "rows {i},{j}: {before} vs {after}"
            );
        }
    }

    #[test]
    fn constant_data_degenerate_ratio() {
        let data = Matrix::from_fn(5, 3, |_, _| 7.0);
        let pca = Pca::fit(&data, 2).unwrap();
        assert_eq!(pca.transform_one(&[7.0, 7.0, 7.0]), vec![0.0, 0.0]);
    }

    #[test]
    fn single_sample_rejected() {
        let data = Matrix::from_rows(&[&[1.0, 2.0]]);
        assert!(Pca::fit(&data, 1).is_err());
    }
}
