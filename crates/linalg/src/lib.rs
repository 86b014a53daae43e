//! Dense linear-algebra substrate for the `autotune` framework.
//!
//! The autotuning stack needs a small but trustworthy set of numerical
//! kernels — Gaussian-process regression needs Cholesky factorizations and
//! triangular solves, CMA-ES needs symmetric eigendecompositions, and
//! workload embeddings need PCA. None of the sanctioned dependency set
//! provides these, so this crate implements them from scratch on a simple
//! row-major [`Matrix`] type. It holds what a surrogate, an optimizer,
//! `wid` or the benchmark calls and nothing kept for completeness: a
//! general (LU) or least-squares (QR) solver has no caller here.
//!
//! Everything here is sized for the autotuning regime: matrices of a few
//! hundred rows (one per trial), not BLAS-scale workloads. Algorithms are
//! chosen for numerical robustness first (jittered Cholesky, cyclic
//! Jacobi) and asymptotic cleverness second.
//!
//! # Example
//!
//! ```
//! use autotune_linalg::{Matrix, Cholesky};
//!
//! // Solve the SPD system A x = b.
//! let a = Matrix::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
//! let chol = Cholesky::new(&a).unwrap();
//! let x = chol.solve_vec(&[8.0, 7.0]);
//! assert!((x[0] - 1.25).abs() < 1e-12);
//! assert!((x[1] - 1.5).abs() < 1e-12);
//! ```

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

mod cholesky;
mod eigen;
mod matrix;
mod par;
mod pca;
pub mod stats;
mod vector;

pub use cholesky::Cholesky;
pub use eigen::{symmetric_eigen, SymmetricEigen};
pub use matrix::Matrix;
pub use par::{ordered_mean, ordered_sum, par_map, par_map_mut};
pub use pca::Pca;
pub use vector::{axpy, dot, norm2, squared_distance};

/// Errors produced by the numerical kernels in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Matrix is not positive-definite (Cholesky failed even with jitter).
    NotPositiveDefinite,
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the expected/actual shapes.
        context: &'static str,
    },
    /// An iterative routine did not converge within its iteration budget.
    NoConvergence,
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::NotPositiveDefinite => write!(f, "matrix is not positive definite"),
            LinalgError::ShapeMismatch { context } => write!(f, "shape mismatch: {context}"),
            LinalgError::NoConvergence => write!(f, "iterative routine failed to converge"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience alias for results from this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
