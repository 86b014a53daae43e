//! Surrogate models for sample-efficient black-box optimization.
//!
//! Sequential model-based optimization replaces the expensive target
//! function with a cheap statistical model fitted to the trials observed so
//! far (tutorial slides 32-44). This crate provides the two model families
//! the tutorial covers, plus two scalable variants for long campaigns:
//!
//! * [`GaussianProcess`] — the classic Bayesian-optimization surrogate:
//!   closed-form posterior mean and variance under a positive-definite
//!   [`Kernel`] (RBF, Matérn ½/3⁄2/5⁄2, periodic, linear, plus sum/product
//!   composition), with marginal-likelihood-based hyperparameter fitting.
//! * [`RandomForest`] — the SMAC-style alternative: an ensemble of
//!   randomized regression trees whose spread estimates predictive
//!   variance. Handles conditional/categorical spaces gracefully where a
//!   GP's distance metric struggles.
//! * [`SparseGaussianProcess`] — an inducing-point (SoR/DTC) sparse GP
//!   whose per-observe and per-predict cost is O(m²) in the inducing-set
//!   size, independent of the campaign length; the 100k-observation
//!   global model.
//! * [`TrustRegionSurrogate`] — a TuRBO-style local GP over the incumbent
//!   region with deterministic expand/shrink dynamics; the cheapest
//!   per-suggestion model, for very long campaigns that refine locally.
//!
//! All implement the common [`Surrogate`] trait that the optimizer crate
//! programs against.
//!
//! # Example
//!
//! ```
//! use autotune_surrogate::{GaussianProcess, Matern52, Surrogate};
//!
//! let xs: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64 / 7.0]).collect();
//! let ys: Vec<f64> = xs.iter().map(|x| (6.0 * x[0]).sin()).collect();
//! let mut gp = GaussianProcess::new(Box::new(Matern52::isotropic(0.3, 1.0)), 1e-6);
//! gp.fit(&xs, &ys).unwrap();
//! let p = gp.predict(&[0.5]);
//! assert!((p.mean - (3.0f64).sin()).abs() < 0.2);
//! ```

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

mod forest;
mod gp;
mod kernel;
mod multitask;
mod sparse;
mod turbo;

pub use forest::RandomForest;
pub use gp::GaussianProcess;
pub use kernel::{
    ConstantKernel, Kernel, LinearKernel, Matern12, Matern32, Matern52, PeriodicKernel,
    ProductKernel, Rbf, SumKernel,
};
pub use multitask::{MultiTaskGp, TaskObservation};
pub use sparse::SparseGaussianProcess;
pub use turbo::{TrustRegionConfig, TrustRegionSurrogate};

/// A predictive distribution at a query point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Prediction {
    /// Posterior mean.
    pub mean: f64,
    /// Posterior variance (>= 0).
    pub variance: f64,
}

impl Prediction {
    /// Posterior standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance.max(0.0).sqrt()
    }
}

/// Errors produced by surrogate-model fitting.
#[derive(Debug, Clone, PartialEq)]
pub enum SurrogateError {
    /// No training data was supplied.
    EmptyTrainingSet,
    /// Rows of the design matrix have inconsistent dimensionality, or the
    /// target vector length does not match.
    DimensionMismatch {
        /// Description of the mismatch.
        context: String,
    },
    /// Training targets contain NaN or infinity.
    NonFiniteTarget,
    /// The kernel matrix could not be factorized.
    NumericalFailure,
    /// The model does not support incremental single-point updates;
    /// callers should fall back to a full [`Surrogate::fit`].
    IncrementalUnsupported,
}

impl std::fmt::Display for SurrogateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SurrogateError::EmptyTrainingSet => write!(f, "empty training set"),
            SurrogateError::DimensionMismatch { context } => {
                write!(f, "dimension mismatch: {context}")
            }
            SurrogateError::NonFiniteTarget => write!(f, "training targets must be finite"),
            SurrogateError::NumericalFailure => write!(f, "numerical failure during fit"),
            SurrogateError::IncrementalUnsupported => {
                write!(f, "model does not support incremental updates")
            }
        }
    }
}

impl std::error::Error for SurrogateError {}

/// Convenience alias for results from this crate.
pub type Result<T> = std::result::Result<T, SurrogateError>;

/// Common interface for surrogate models over `R^d -> R`.
///
/// Inputs are points in the optimizer's encoded space (unit cube or one-hot
/// layout — the surrogate does not care which).
pub trait Surrogate: Send + Sync {
    /// Fits the model to `(xs, ys)` pairs, replacing any previous fit.
    fn fit(&mut self, xs: &[Vec<f64>], ys: &[f64]) -> Result<()>;

    /// Predictive mean and variance at `x`.
    fn predict(&self, x: &[f64]) -> Prediction;

    /// [`Surrogate::predict`] at each of `xs`, in order, bit for bit.
    ///
    /// The default maps `predict`; the dense GP answers a block of points
    /// with one kernel block and one many-right-hand-side solve.
    fn predict_many(&self, xs: &[Vec<f64>]) -> Vec<Prediction> {
        xs.iter().map(|x| self.predict(x)).collect()
    }

    /// Number of training points in the current fit (0 before fitting).
    fn n_train(&self) -> usize;

    /// Absorbs a single `(x, y)` pair into the current fit *in place*,
    /// without discarding the previous training set.
    ///
    /// Models with an incremental path (the GP's rank-1 Cholesky
    /// extension) implement this in O(n²); the default returns
    /// [`SurrogateError::IncrementalUnsupported`] so callers fall back to
    /// a full [`Surrogate::fit`]. On any error the model must be left
    /// exactly as it was before the call.
    fn observe(&mut self, _x: &[f64], _y: f64) -> Result<()> {
        Err(SurrogateError::IncrementalUnsupported)
    }
}

/// Validates a design matrix / target pair, returning the input dimension.
pub(crate) fn check_training_set(xs: &[Vec<f64>], ys: &[f64]) -> Result<usize> {
    if xs.is_empty() {
        return Err(SurrogateError::EmptyTrainingSet);
    }
    if xs.len() != ys.len() {
        return Err(SurrogateError::DimensionMismatch {
            context: format!("{} inputs but {} targets", xs.len(), ys.len()),
        });
    }
    let d = xs[0].len();
    if d == 0 {
        return Err(SurrogateError::DimensionMismatch {
            context: "zero-dimensional inputs".into(),
        });
    }
    for (i, x) in xs.iter().enumerate() {
        if x.len() != d {
            return Err(SurrogateError::DimensionMismatch {
                context: format!("row {i} has dimension {} (expected {d})", x.len()),
            });
        }
        if x.iter().any(|v| !v.is_finite()) {
            return Err(SurrogateError::DimensionMismatch {
                context: format!("row {i} contains non-finite values"),
            });
        }
    }
    if ys.iter().any(|y| !y.is_finite()) {
        return Err(SurrogateError::NonFiniteTarget);
    }
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_default_predict_many_is_predict_bit_for_bit() {
        let point = |i: usize| vec![(i as f64 * 0.37).sin().abs(), (i as f64 * 0.71).cos().abs()];
        let xs: Vec<Vec<f64>> = (0..40).map(point).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (3.0 * x[0]).sin() + x[1]).collect();
        let queries: Vec<Vec<f64>> = (100..117).map(point).collect();
        let kernel = || Box::new(Matern52::isotropic(0.4, 1.0));
        let models: Vec<Box<dyn Surrogate>> = vec![
            Box::new(SparseGaussianProcess::new(kernel(), 256)),
            Box::new(TrustRegionSurrogate::new(
                kernel(),
                TrustRegionConfig::default(),
            )),
            Box::new(RandomForest::default_forest()),
        ];
        for mut model in models {
            model.fit(&xs, &ys).unwrap();
            let got = model.predict_many(&queries);
            for (q, got) in queries.iter().zip(&got) {
                let want = model.predict(q);
                assert_eq!(got.mean.to_bits(), want.mean.to_bits());
                assert_eq!(got.variance.to_bits(), want.variance.to_bits());
            }
            assert_eq!(got.len(), queries.len());
        }
    }
}
