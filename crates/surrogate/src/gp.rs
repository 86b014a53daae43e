//! Gaussian-process regression (tutorial slides 35-44).
//!
//! The GP models the unknown target as `f ~ GP(m, K)`; conditioning on the
//! observed trials gives a closed-form posterior (slide 41):
//!
//! ```text
//! mean(x)  = k(x, X) (K + σ²I)⁻¹ y
//! var(x)   = k(x, x) - k(x, X) (K + σ²I)⁻¹ k(X, x)
//! ```
//!
//! Targets are standardized internally (zero mean, unit variance) so kernel
//! signal scales stay O(1) regardless of whether the metric is nanoseconds
//! or transactions per minute.

use crate::{check_training_set, Kernel, Prediction, Result, Surrogate, SurrogateError};
use autotune_linalg::{Cholesky, Matrix};
use rand::Rng;

/// The restarts and noise bounds of
/// [`GaussianProcess::fit_hyperparameters`]: always `HYPER_FIT`, except in
/// the tests below, which need other values to reach the fault path and the
/// noise-only restarts on their own.
struct HyperFit {
    /// Number of random restarts sampled from the search ranges.
    n_candidates: usize,
    /// Noise search bounds (variance), log-uniform.
    noise_bounds: (f64, f64),
    /// Extra restarts that keep the incumbent kernel parameters and only
    /// redraw the noise. These reuse the cached noiseless kernel matrix and
    /// merely re-add the diagonal, so they cost one Cholesky each instead
    /// of n² kernel evaluations plus a Cholesky.
    n_noise_candidates: usize,
}

const HYPER_FIT: HyperFit = HyperFit {
    n_candidates: 50,
    noise_bounds: (1e-8, 1e-1),
    n_noise_candidates: 16,
};

/// Log-space search half-width around the current parameter values.
const LOG_RANGE: f64 = 3.0;

/// Candidate batches at or above this size are scored on parallel threads.
const MIN_PAR_CANDIDATES: usize = 8;

/// Noiseless kernel matrix over the training set, memoized against the
/// kernel parameters it was built with. `x_train` growth is handled by
/// [`KCache::push`]; any other change to the training set must drop the
/// cache.
#[derive(Debug, Clone)]
struct KCache {
    params: Vec<f64>,
    k: Matrix,
}

impl KCache {
    /// Borders the cached matrix with one row/column: `col` holds
    /// `k(x_i, x_new)` for the existing points and `diag` is `k(x, x)`.
    fn push(&mut self, col: &[f64], diag: f64) {
        let n = self.k.rows();
        debug_assert_eq!(col.len(), n, "KCache::push: column length mismatch");
        let mut k = Matrix::zeros(n + 1, n + 1);
        for i in 0..n {
            k.row_mut(i)[..n].copy_from_slice(&self.k.row(i)[..n]);
            k[(i, n)] = col[i];
            k[(n, i)] = col[i];
        }
        k[(n, n)] = diag;
        self.k = k;
    }
}

/// Training inputs stored dimension-major, the layout
/// [`Kernel::eval_many`] reads: coordinate `d` of point `j` at
/// `data[d * n + j]`.
#[derive(Debug, Clone, Default)]
struct Inputs {
    dim: usize,
    n: usize,
    data: Vec<f64>,
}

impl Inputs {
    fn from_rows(xs: &[Vec<f64>]) -> Self {
        let dim = xs.first().map_or(0, Vec::len);
        let data = (0..dim)
            .flat_map(|d| xs.iter().map(move |x| x[d]))
            .collect();
        Inputs {
            dim,
            n: xs.len(),
            data,
        }
    }

    fn len(&self) -> usize {
        self.n
    }

    fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Point `j`, gathered.
    fn point(&self, j: usize) -> Vec<f64> {
        (0..self.dim).map(|d| self.data[d * self.n + j]).collect()
    }

    /// `out[j] = k(x_j, b)` for the first `out.len()` points.
    fn kernel_row(&self, kernel: &dyn Kernel, b: &[f64], out: &mut [f64]) {
        kernel.eval_many(&self.data, self.n, b, out);
    }

    /// Appends `x` (of this set's dimension). Every dimension is laid out
    /// again: O(n·d), below the O(n²) factor extension it rides with.
    fn push(&mut self, x: &[f64]) {
        let n = self.n;
        let mut data = Vec::with_capacity(self.dim * (n + 1));
        for (d, &v) in x.iter().enumerate() {
            data.extend_from_slice(&self.data[d * n..(d + 1) * n]);
            data.push(v);
        }
        self.data = data;
        self.n = n + 1;
    }

    /// Drops the last point.
    fn pop(&mut self) {
        let n = self.n;
        self.data = (0..self.dim)
            .flat_map(|d| &self.data[d * n..(d + 1) * n - 1])
            .copied()
            .collect();
        self.n = n - 1;
    }
}

/// A Gaussian-process regressor with a pluggable kernel.
pub struct GaussianProcess {
    kernel: Box<dyn Kernel>,
    /// Observation-noise *variance* added to the kernel diagonal.
    noise: f64,
    x_train: Inputs,
    /// Raw targets, kept so incremental observes can re-standardize.
    y_raw: Vec<f64>,
    /// Standardized targets.
    y_std: Vec<f64>,
    /// Standardization parameters (mean, std) of the raw targets.
    y_shift: (f64, f64),
    chol: Option<Cholesky>,
    /// `(K + σ²I)⁻¹ y`, precomputed at fit time.
    alpha: Vec<f64>,
    /// Memoized noiseless kernel matrix (see [`KCache`]).
    k_cache: Option<KCache>,
}

impl std::fmt::Debug for GaussianProcess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GaussianProcess")
            .field("kernel", &self.kernel)
            .field("noise", &self.noise)
            .field("n_train", &self.x_train.len())
            .finish()
    }
}

impl GaussianProcess {
    /// Creates an unfitted GP with the given kernel and observation-noise
    /// variance.
    pub fn new(kernel: Box<dyn Kernel>, noise: f64) -> Self {
        assert!(noise >= 0.0, "noise variance must be non-negative");
        GaussianProcess {
            kernel,
            noise,
            x_train: Inputs::default(),
            y_raw: Vec::new(),
            y_std: Vec::new(),
            y_shift: (0.0, 1.0),
            chol: None,
            alpha: Vec::new(),
            k_cache: None,
        }
    }

    /// The kernel currently in use.
    pub fn kernel(&self) -> &dyn Kernel {
        self.kernel.as_ref()
    }

    /// Observation-noise variance.
    pub fn noise(&self) -> f64 {
        self.noise
    }

    /// Builds the noiseless kernel matrix over `xs` with the given kernel.
    ///
    /// Row `i` of the lower triangle is one batched kernel row,
    /// `k(x_j, x_i)` for `j <= i`, and is mirrored into the upper one.
    fn noiseless_matrix(kernel: &dyn Kernel, xs: &Inputs) -> Matrix {
        let n = xs.len();
        let mut k = Matrix::zeros(n, n);
        for i in 0..n {
            xs.kernel_row(kernel, &xs.point(i), &mut k.row_mut(i)[..=i]);
        }
        for i in 0..n {
            for j in 0..i {
                k[(j, i)] = k[(i, j)];
            }
        }
        k
    }

    /// Makes the memoized noiseless kernel matrix current for the present
    /// kernel parameters and training set size.
    fn ensure_k_cache(&mut self) {
        let n = self.x_train.len();
        let params = self.kernel.params();
        if self
            .k_cache
            .as_ref()
            .is_some_and(|c| c.k.rows() == n && c.params == params)
        {
            return;
        }
        self.k_cache = Some(KCache {
            params,
            k: Self::noiseless_matrix(self.kernel.as_ref(), &self.x_train),
        });
    }

    /// Re-standardizes `y_std`/`y_shift` from the raw targets.
    fn restandardize(&mut self) {
        let mean = autotune_linalg::stats::mean(&self.y_raw);
        let std = autotune_linalg::stats::std_dev(&self.y_raw);
        let std = if std > 1e-12 { std } else { 1.0 };
        self.y_shift = (mean, std);
        self.y_std = self.y_raw.iter().map(|&y| (y - mean) / std).collect();
    }

    /// Re-runs the factorization against the stored training data.
    fn refit(&mut self) -> Result<()> {
        self.ensure_k_cache();
        let mut k = self.k_cache.as_ref().expect("cache just ensured").k.clone(); // lint: allow(D5) cache ensured on the previous line
        k.add_diag(self.noise.max(1e-12));
        let chol = Cholesky::new(&k).map_err(|_| SurrogateError::NumericalFailure)?;
        self.alpha = chol.solve_vec(&self.y_std);
        self.chol = Some(chol);
        Ok(())
    }

    /// Log marginal likelihood of the current fit (standardized targets).
    ///
    /// `log p(y|X) = -½ yᵀα - ½ log|K| - n/2 log 2π` (slide 39: the
    /// closed-form payoff of choosing Gaussians).
    pub fn log_marginal_likelihood(&self) -> f64 {
        let Some(chol) = &self.chol else {
            return f64::NEG_INFINITY;
        };
        let n = self.y_std.len() as f64;
        let data_fit: f64 = autotune_linalg::dot(&self.y_std, &self.alpha);
        -0.5 * data_fit - 0.5 * chol.log_det() - 0.5 * n * (2.0 * std::f64::consts::PI).ln()
    }

    /// Log marginal likelihood of a hyperparameter candidate, evaluated
    /// without touching the current fit. Candidates matching the memoized
    /// kernel parameters reuse the cached noiseless matrix and only re-add
    /// the diagonal. Returns `-inf` when the candidate's kernel matrix
    /// cannot be factorized (mirroring the old "skip this restart" path).
    fn candidate_lml(&self, params: &[f64], noise: f64) -> f64 {
        // A non-finite or negative noise draw (e.g. from pathological
        // bounds) must lose, not be silently clamped by `max(1e-12)` below
        // and then committed as the model's noise.
        if !noise.is_finite() || noise < 0.0 || params.iter().any(|p| !p.is_finite()) {
            return f64::NEG_INFINITY;
        }
        let n = self.x_train.len();
        let mut k = match self.k_cache.as_ref() {
            Some(c) if c.k.rows() == n && c.params == params => c.k.clone(),
            _ => {
                let mut kernel = self.kernel.clone_box();
                kernel.set_params(params);
                Self::noiseless_matrix(kernel.as_ref(), &self.x_train)
            }
        };
        k.add_diag(noise.max(1e-12));
        let Ok(chol) = Cholesky::new(&k) else {
            return f64::NEG_INFINITY;
        };
        let alpha = chol.solve_vec(&self.y_std);
        let data_fit = autotune_linalg::dot(&self.y_std, &alpha);
        -0.5 * data_fit - 0.5 * chol.log_det() - 0.5 * n as f64 * (2.0 * std::f64::consts::PI).ln()
    }

    /// Maximizes the log marginal likelihood over kernel hyperparameters
    /// and the noise by random multi-start search around the current
    /// values. Returns the best LML found.
    ///
    /// Random search is deliberate: it is derivative-free, trivially
    /// correct for composite kernels, and at the trial counts autotuning
    /// sees (n ≤ a few hundred) each LML evaluation is a sub-millisecond
    /// Cholesky — robustness beats gradient bookkeeping.
    ///
    /// All candidates are drawn from `rng` up front (in the same order as
    /// the historical sequential loop) and scored in parallel as pure
    /// functions of the frozen training set, with a deterministic
    /// index-ordered argmax — results are independent of thread count and
    /// interleaving. On any error the GP is left in its pre-call state.
    pub fn fit_hyperparameters(&mut self, rng: &mut impl Rng) -> Result<f64> {
        self.fit_hyperparameters_with(&HYPER_FIT, rng)
    }

    fn fit_hyperparameters_with(&mut self, config: &HyperFit, rng: &mut impl Rng) -> Result<f64> {
        if self.x_train.is_empty() {
            return Err(SurrogateError::EmptyTrainingSet);
        }
        let base = self.kernel.params();
        let base_noise = self.noise;
        let incumbent_lml = self.log_marginal_likelihood();
        let noise_from = |u: f64| {
            let (lo, hi) = config.noise_bounds;
            (lo.ln() + u * (hi.ln() - lo.ln())).exp()
        };
        let mut cands: Vec<(Vec<f64>, f64)> =
            Vec::with_capacity(config.n_candidates + config.n_noise_candidates);
        for i in 0..config.n_candidates {
            // Half the candidates perturb the current values; the other
            // half search around unit scales (log-param 0), which rescues
            // the fit from a hopeless initialization.
            let center: &[f64] = if i % 2 == 0 { &base } else { &[] };
            let cand: Vec<f64> = (0..base.len())
                .map(|j| {
                    let c = center.get(j).copied().unwrap_or(0.0);
                    c + rng.gen_range(-LOG_RANGE..LOG_RANGE)
                })
                .collect();
            cands.push((cand, noise_from(rng.gen())));
        }
        // Noise-only restarts around the incumbent kernel; these reuse the
        // cached noiseless K below. Drawn after the full restarts so the
        // draws above keep their historical stream positions.
        for _ in 0..config.n_noise_candidates {
            cands.push((base.clone(), noise_from(rng.gen())));
        }
        self.ensure_k_cache();
        let this: &Self = self;
        let lmls = autotune_linalg::par_map(&cands, MIN_PAR_CANDIDATES, |_, (params, noise)| {
            this.candidate_lml(params, *noise)
        });
        let mut best_lml = incumbent_lml;
        let mut best: Option<usize> = None;
        for (i, &lml) in lmls.iter().enumerate() {
            if lml > best_lml {
                best_lml = lml;
                best = Some(i);
            }
        }
        match best {
            Some(i) => {
                let (params, noise) = &cands[i];
                self.kernel.set_params(params);
                self.noise = *noise;
                if let Err(e) = self.refit() {
                    // Defensive: the winner factorized during scoring, so
                    // this is unreachable short of kernel non-determinism.
                    // Restore the pre-call state; the old factorization is
                    // still in place and the GP stays usable.
                    self.kernel.set_params(&base);
                    self.noise = base_noise;
                    self.k_cache = None;
                    return Err(e);
                }
            }
            // The incumbent won and its factorization is already current:
            // the terminal refit of the sequential implementation would
            // recompute the identical factor, so skip it.
            None if self.chol.is_some() => {}
            None => self.refit()?,
        }
        Ok(best_lml)
    }

    /// Posterior covariance between two query points.
    fn posterior_cov(&self, a: &[f64], b: &[f64], ka: &[f64], kb: &[f64]) -> f64 {
        let chol = self.chol.as_ref().expect("called only after fit"); // lint: allow(D5) private helper called only after fit
                                                                       // cov(a,b) = k(a,b) - k(a,X) K⁻¹ k(X,b), computed via the factor:
                                                                       // v_a = L⁻¹ k(X,a), v_b = L⁻¹ k(X,b), cov = k(a,b) - v_a·v_b.
        let va = chol.solve_lower(ka);
        let vb = chol.solve_lower(kb);
        self.kernel.eval(a, b) - autotune_linalg::dot(&va, &vb)
    }

    /// Cross-covariance vector `k(X, x)`.
    fn k_vec(&self, x: &[f64]) -> Vec<f64> {
        let mut k = vec![0.0; self.x_train.len()];
        self.x_train.kernel_row(self.kernel.as_ref(), x, &mut k);
        k
    }

    /// Draws one sample path of the posterior evaluated at `points`
    /// (or the prior, when the GP is unfitted). This powers the tutorial's
    /// "distribution over functions" figures (slides 35-36).
    pub fn sample_function(&self, points: &[Vec<f64>], rng: &mut impl Rng) -> Vec<f64> {
        let m = points.len();
        if m == 0 {
            return Vec::new();
        }
        // Mean vector and covariance matrix at the query points.
        let (mean, mut cov) = if self.chol.is_some() {
            let kvecs: Vec<Vec<f64>> = points.iter().map(|p| self.k_vec(p)).collect();
            let mean: Vec<f64> = points
                .iter()
                .zip(&kvecs)
                .map(|(_, kv)| autotune_linalg::dot(kv, &self.alpha))
                .collect();
            let cov = Matrix::from_fn(m, m, |i, j| {
                self.posterior_cov(&points[i], &points[j], &kvecs[i], &kvecs[j])
            });
            (mean, cov)
        } else {
            let mean = vec![0.0; m];
            let cov = Matrix::from_fn(m, m, |i, j| self.kernel.eval(&points[i], &points[j]));
            (mean, cov)
        };
        // Symmetrize against round-off before factorizing.
        for i in 0..m {
            for j in 0..i {
                let avg = 0.5 * (cov[(i, j)] + cov[(j, i)]);
                cov[(i, j)] = avg;
                cov[(j, i)] = avg;
            }
        }
        cov.add_diag(1e-9);
        let chol = Cholesky::new(&cov).expect("posterior covariance is PSD with jitter"); // lint: allow(D5) jitter makes the covariance SPD
        let z: Vec<f64> = (0..m)
            .map(|_| {
                let u1: f64 = rng.gen::<f64>().max(1e-12);
                let u2: f64 = rng.gen();
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
            })
            .collect();
        let lz = chol
            .l()
            .matvec(&z)
            .expect("dimensions match by construction"); // lint: allow(D5) factor dims match by construction
        let (ym, ys) = self.y_shift;
        mean.iter()
            .zip(&lz)
            .map(|(&mu, &dz)| ym + ys * (mu + dz))
            .collect()
    }

    /// Predictive distribution at each of `points`; `predict` is the
    /// one-point case.
    ///
    /// In the standardized target space, point `c` has mean
    /// `k_c · alpha` and variance `k(q_c, q_c) − ‖L⁻¹ k_c‖²` with
    /// `k_c = k(X, q_c)`. The `k_c` are built as one block, interleaved
    /// (`k(x_i, q_c)` at `i * m + c`), solved with one
    /// [`Cholesky::solve_lower_many`], and every dot product runs as its
    /// own chain in `dot`'s order (from `-0.0`, ascending `i`, multiply
    /// then add), all `m` side by side.
    fn posterior<P: AsRef<[f64]>>(&self, points: &[P]) -> Vec<Prediction> {
        let (ym, ys) = self.y_shift;
        let destandardize = |mean: f64, variance: f64| Prediction {
            mean: ym + ys * mean,
            variance: ys * ys * variance,
        };
        let Some(chol) = &self.chol else {
            return points
                .iter()
                .map(|x| destandardize(0.0, self.kernel.diag(x.as_ref())))
                .collect();
        };
        let (n, m) = (self.x_train.len(), points.len());
        if m == 0 {
            return Vec::new();
        }
        let mut block = vec![0.0; n * m];
        let mut k = vec![0.0; n];
        for (c, x) in points.iter().enumerate() {
            self.x_train
                .kernel_row(self.kernel.as_ref(), x.as_ref(), &mut k);
            for (i, &v) in k.iter().enumerate() {
                block[i * m + c] = v;
            }
        }
        let mut means = vec![-0.0; m];
        for (row, &a) in block.chunks_exact(m).zip(&self.alpha) {
            for (s, &kc) in means.iter_mut().zip(row) {
                *s += kc * a;
            }
        }
        let v = chol.solve_lower_many(&block, m);
        let mut vv = vec![-0.0; m];
        for row in v.chunks_exact(m) {
            for (s, &v) in vv.iter_mut().zip(row) {
                *s += v * v;
            }
        }
        points
            .iter()
            .zip(means.into_iter().zip(vv))
            .map(|(x, (mean, vv))| {
                destandardize(mean, (self.kernel.diag(x.as_ref()) - vv).max(0.0))
            })
            .collect()
    }
}

impl Surrogate for GaussianProcess {
    fn fit(&mut self, xs: &[Vec<f64>], ys: &[f64]) -> Result<()> {
        check_training_set(xs, ys)?;
        self.y_raw = ys.to_vec();
        self.restandardize();
        self.x_train = Inputs::from_rows(xs);
        self.k_cache = None; // training inputs replaced wholesale
        self.refit()
    }

    fn predict(&self, x: &[f64]) -> Prediction {
        self.posterior(&[x])[0]
    }

    fn predict_many(&self, xs: &[Vec<f64>]) -> Vec<Prediction> {
        self.posterior(xs)
    }

    fn n_train(&self) -> usize {
        self.x_train.len()
    }

    /// O(n²) incremental update: borders the kernel matrix with the new
    /// point, extends the Cholesky factor in place ([`Cholesky::extend`]),
    /// re-standardizes the targets (the shift changes with every raw
    /// observation, but `K` depends only on the inputs, so the factor stays
    /// valid), and recomputes `alpha` with two triangular solves.
    ///
    /// Falls back to a full re-factorization when the new point is
    /// numerically dependent on the training set; if even that fails the
    /// observation is rolled back and the previous fit is preserved.
    fn observe(&mut self, x: &[f64], y: f64) -> Result<()> {
        if self.x_train.is_empty() {
            return self.fit(&[x.to_vec()], &[y]);
        }
        if x.len() != self.x_train.dim {
            return Err(SurrogateError::DimensionMismatch {
                context: format!(
                    "observe: point has dimension {} (expected {})",
                    x.len(),
                    self.x_train.dim
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
        let k_col = self.k_vec(x);
        let k_diag = self.kernel.diag(x);
        let extended = match &mut self.chol {
            Some(chol) => chol.extend(&k_col, k_diag + self.noise.max(1e-12)).is_ok(),
            None => false,
        };
        if extended {
            let params = self.kernel.params();
            match &mut self.k_cache {
                Some(c) if c.params == params && c.k.rows() == self.x_train.len() => {
                    c.push(&k_col, k_diag);
                }
                _ => self.k_cache = None,
            }
        }
        self.x_train.push(x);
        self.y_raw.push(y);
        let saved_shift = self.y_shift;
        self.restandardize();
        if extended {
            let chol = self.chol.as_ref().expect("factor present when extended"); // lint: allow(D5) extend success implies factor present
            self.alpha = chol.solve_vec(&self.y_std);
            return Ok(());
        }
        self.k_cache = None;
        if let Err(e) = self.refit() {
            // Roll back so the model is exactly as before the call.
            self.x_train.pop();
            self.y_raw.pop();
            self.y_shift = saved_shift;
            let (m, s) = saved_shift;
            self.y_std = self.y_raw.iter().map(|&v| (v - m) / s).collect();
            return Err(e);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Matern52, Rbf};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64 / 9.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (4.0 * x[0]).sin() + 2.0).collect();
        (xs, ys)
    }

    #[test]
    fn interpolates_training_points_with_tiny_noise() {
        let (xs, ys) = toy_data();
        let mut gp = GaussianProcess::new(Box::new(Rbf::isotropic(0.3, 1.0)), 1e-8);
        gp.fit(&xs, &ys).unwrap();
        for (x, &y) in xs.iter().zip(&ys) {
            let p = gp.predict(x);
            assert!((p.mean - y).abs() < 1e-3, "mean {} vs target {y}", p.mean);
            assert!(p.variance < 1e-4, "variance {} not collapsed", p.variance);
        }
    }

    fn prediction_bits(ps: &[Prediction]) -> Vec<(u64, u64)> {
        ps.iter()
            .map(|p| (p.mean.to_bits(), p.variance.to_bits()))
            .collect()
    }

    #[test]
    fn predict_many_is_predict_bit_for_bit() {
        // Every kernel, fitted (across the chain width, with a duplicate
        // training point) and unfitted, at 0..=17 query points.
        let dim = 3;
        let point = |i: usize| -> Vec<f64> {
            (0..dim)
                .map(|d| ((i * 7 + d * 3) as f64 * 0.41).sin())
                .collect()
        };
        let queries: Vec<Vec<f64>> = (100..117).map(point).collect();
        let mut fitted = 0;
        for kernel in crate::kernel::tests::kernel_zoo(dim) {
            for n in [0, 1, 9, 20] {
                let mut gp = GaussianProcess::new(kernel.clone_box(), 1e-6);
                let mut xs: Vec<Vec<f64>> = (0..n).map(point).collect();
                if n > 0 {
                    xs.push(xs[0].clone());
                    let ys: Vec<f64> = xs.iter().map(|x| x[0] * 3.0 - x[1]).collect();
                    // The periodic kernel is not positive definite over
                    // 3-D distances: nothing fitted to compare there.
                    if gp.fit(&xs, &ys).is_err() {
                        continue;
                    }
                    fitted += 1;
                }
                // `predict` itself is the textbook posterior, one `eval`,
                // `dot` and `solve_lower` at a time.
                for q in &queries {
                    let (ym, ys) = gp.y_shift;
                    let (mean, variance) = match &gp.chol {
                        None => (0.0, kernel.diag(q)),
                        Some(chol) => {
                            let k: Vec<f64> = xs.iter().map(|x| kernel.eval(x, q)).collect();
                            let v = chol.solve_lower(&k);
                            let vv = autotune_linalg::dot(&v, &v);
                            (
                                autotune_linalg::dot(&k, &gp.alpha),
                                (kernel.diag(q) - vv).max(0.0),
                            )
                        }
                    };
                    let want = Prediction {
                        mean: ym + ys * mean,
                        variance: ys * ys * variance,
                    };
                    let got = gp.predict(q);
                    assert_eq!(
                        prediction_bits(&[got]),
                        prediction_bits(&[want]),
                        "{kernel:?}"
                    );
                }
                for m in 0..=queries.len() {
                    let got = gp.predict_many(&queries[..m]);
                    let want: Vec<Prediction> =
                        queries[..m].iter().map(|q| gp.predict(q)).collect();
                    assert_eq!(
                        prediction_bits(&got),
                        prediction_bits(&want),
                        "{kernel:?} n={n} m={m}"
                    );
                }
            }
        }
        assert!(fitted >= 25, "only {fitted} fits to compare");
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let (xs, ys) = toy_data();
        let mut gp = GaussianProcess::new(Box::new(Matern52::isotropic(0.2, 1.0)), 1e-6);
        gp.fit(&xs, &ys).unwrap();
        let at_data = gp.predict(&xs[4]).variance;
        let far = gp.predict(&[3.0]).variance;
        assert!(
            far > 100.0 * at_data.max(1e-12),
            "far {far} vs at-data {at_data}"
        );
    }

    #[test]
    fn prediction_reasonable_between_points() {
        let (xs, ys) = toy_data();
        let mut gp = GaussianProcess::new(Box::new(Matern52::isotropic(0.3, 1.0)), 1e-6);
        gp.fit(&xs, &ys).unwrap();
        let x = 0.5f64;
        let truth = (4.0 * x).sin() + 2.0;
        let p = gp.predict(&[x]);
        assert!(
            (p.mean - truth).abs() < 0.1,
            "mean {} vs truth {truth}",
            p.mean
        );
    }

    #[test]
    fn unfitted_gp_returns_prior() {
        let gp = GaussianProcess::new(Box::new(Rbf::isotropic(1.0, 2.0)), 0.0);
        let p = gp.predict(&[0.3]);
        assert_eq!(p.mean, 0.0);
        assert!((p.variance - 4.0).abs() < 1e-12);
        assert_eq!(gp.n_train(), 0);
    }

    #[test]
    fn standardization_handles_large_offsets() {
        // Latencies around 1e6 ns: without standardization an O(1) signal
        // prior would be hopeless.
        let xs: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64 / 5.0]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| 1.0e6 + 1.0e4 * x[0]).collect();
        let mut gp = GaussianProcess::new(Box::new(Rbf::isotropic(0.5, 1.0)), 1e-6);
        gp.fit(&xs, &ys).unwrap();
        let p = gp.predict(&[0.5]);
        assert!((p.mean - 1.005e6).abs() < 2e3, "mean {}", p.mean);
    }

    #[test]
    fn hyperparameter_fit_improves_lml() {
        let (xs, ys) = toy_data();
        // Deliberately bad starting lengthscale.
        let mut gp = GaussianProcess::new(Box::new(Rbf::isotropic(50.0, 0.1)), 1e-4);
        gp.fit(&xs, &ys).unwrap();
        let before = gp.log_marginal_likelihood();
        let mut rng = StdRng::seed_from_u64(42);
        let after = gp.fit_hyperparameters(&mut rng).unwrap();
        assert!(after > before, "LML {after} should beat initial {before}");
        // And the fit should now interpolate decently.
        let p = gp.predict(&[0.5]);
        assert!((p.mean - ((2.0f64).sin() + 2.0)).abs() < 0.3);
    }

    #[test]
    fn posterior_samples_pass_near_observations() {
        let (xs, ys) = toy_data();
        let mut gp = GaussianProcess::new(Box::new(Rbf::isotropic(0.3, 1.0)), 1e-8);
        gp.fit(&xs, &ys).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let sample = gp.sample_function(&xs, &mut rng);
        for (s, &y) in sample.iter().zip(&ys) {
            assert!(
                (s - y).abs() < 0.05,
                "sample {s} strays from observation {y}"
            );
        }
    }

    #[test]
    fn prior_samples_have_prior_scale() {
        let gp = GaussianProcess::new(Box::new(Rbf::isotropic(0.5, 1.0)), 0.0);
        let points: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 / 49.0]).collect();
        let mut rng = StdRng::seed_from_u64(5);
        // Pool many prior draws: empirical std should be near 1.
        let mut all = Vec::new();
        for _ in 0..20 {
            all.extend(gp.sample_function(&points, &mut rng));
        }
        let sd = autotune_linalg::stats::std_dev(&all);
        assert!((sd - 1.0).abs() < 0.3, "prior sample std {sd}");
    }

    #[test]
    fn mismatched_inputs_rejected() {
        let mut gp = GaussianProcess::new(Box::new(Rbf::isotropic(1.0, 1.0)), 1e-6);
        assert_eq!(
            gp.fit(&[], &[]).unwrap_err(),
            SurrogateError::EmptyTrainingSet
        );
        assert!(gp.fit(&[vec![0.0], vec![0.0, 1.0]], &[1.0, 2.0]).is_err());
        assert_eq!(
            gp.fit(&[vec![0.0]], &[f64::NAN]).unwrap_err(),
            SurrogateError::NonFiniteTarget
        );
    }

    #[test]
    fn duplicate_points_survive_via_jitter() {
        let xs = vec![vec![0.5], vec![0.5], vec![0.5]];
        let ys = vec![1.0, 1.1, 0.9];
        let mut gp = GaussianProcess::new(Box::new(Rbf::isotropic(1.0, 1.0)), 0.0);
        gp.fit(&xs, &ys).unwrap();
        let p = gp.predict(&[0.5]);
        assert!((p.mean - 1.0).abs() < 0.1);
    }

    #[test]
    fn incremental_observe_matches_full_fit() {
        let (xs, ys) = toy_data();
        let mut inc = GaussianProcess::new(Box::new(Matern52::isotropic(0.3, 1.0)), 1e-6);
        // Grow one point at a time through the incremental path.
        for (x, &y) in xs.iter().zip(&ys) {
            inc.observe(x, y).unwrap();
        }
        let mut full = GaussianProcess::new(Box::new(Matern52::isotropic(0.3, 1.0)), 1e-6);
        full.fit(&xs, &ys).unwrap();
        assert_eq!(inc.n_train(), full.n_train());
        for q in [0.05, 0.31, 0.5, 0.77, 1.3] {
            let a = inc.predict(&[q]);
            let b = full.predict(&[q]);
            assert!(
                (a.mean - b.mean).abs() < 1e-8,
                "mean at {q}: {} vs {}",
                a.mean,
                b.mean
            );
            assert!(
                (a.variance - b.variance).abs() < 1e-8,
                "variance at {q}: {} vs {}",
                a.variance,
                b.variance
            );
        }
        assert!((inc.log_marginal_likelihood() - full.log_marginal_likelihood()).abs() < 1e-8);
    }

    #[test]
    fn observe_on_duplicate_point_falls_back_to_full_refit() {
        // A duplicated configuration makes the rank-1 Schur complement
        // non-positive; observe must transparently re-factorize with
        // jitter instead of failing.
        let mut gp = GaussianProcess::new(Box::new(Rbf::isotropic(1.0, 1.0)), 0.0);
        gp.observe(&[0.5], 1.0).unwrap();
        gp.observe(&[0.5], 1.1).unwrap();
        gp.observe(&[0.5], 0.9).unwrap();
        assert_eq!(gp.n_train(), 3);
        let p = gp.predict(&[0.5]);
        assert!((p.mean - 1.0).abs() < 0.1);
    }

    #[test]
    fn observe_rejects_bad_input_without_mutating() {
        let (xs, ys) = toy_data();
        let mut gp = GaussianProcess::new(Box::new(Rbf::isotropic(0.3, 1.0)), 1e-6);
        gp.fit(&xs, &ys).unwrap();
        let before = gp.predict(&[0.4]);
        assert!(matches!(
            gp.observe(&[0.1, 0.2], 1.0),
            Err(SurrogateError::DimensionMismatch { .. })
        ));
        assert_eq!(
            gp.observe(&[0.3], f64::NAN).unwrap_err(),
            SurrogateError::NonFiniteTarget
        );
        assert!(matches!(
            gp.observe(&[f64::INFINITY], 1.0),
            Err(SurrogateError::DimensionMismatch { .. })
        ));
        assert_eq!(gp.n_train(), xs.len());
        assert_eq!(gp.predict(&[0.4]), before);
    }

    #[test]
    fn failed_hyperfit_restores_pre_call_state() {
        // Satellite regression: pathological noise bounds make every
        // candidate's kernel matrix unfactorizable (NaN noise). The GP must
        // come back with its original hyperparameters, factorization, and
        // predictions intact — the old implementation left mutated params
        // with a stale factor.
        let (xs, ys) = toy_data();
        let mut gp = GaussianProcess::new(Box::new(Rbf::isotropic(0.3, 1.0)), 1e-6);
        gp.fit(&xs, &ys).unwrap();
        let params_before = gp.kernel().params();
        let noise_before = gp.noise();
        let lml_before = gp.log_marginal_likelihood();
        let pred_before = gp.predict(&[0.42]);
        let cfg = HyperFit {
            noise_bounds: (f64::NAN, f64::NAN),
            ..HYPER_FIT
        };
        let mut rng = StdRng::seed_from_u64(3);
        let got = gp.fit_hyperparameters_with(&cfg, &mut rng).unwrap();
        assert_eq!(got, lml_before, "no candidate can beat the incumbent");
        assert_eq!(gp.kernel().params(), params_before);
        assert_eq!(gp.noise(), noise_before);
        assert_eq!(gp.predict(&[0.42]), pred_before);
        // The GP must still be fully usable after the failed search.
        gp.observe(&[0.05], 2.1).unwrap();
        assert_eq!(gp.n_train(), xs.len() + 1);
    }

    #[test]
    fn noise_only_candidates_keep_kernel_params() {
        // With zero full restarts, only noise-only candidates run: kernel
        // parameters must come back unchanged while a badly initialized
        // noise can still be improved through the cached-K path.
        let (xs, ys) = toy_data();
        let mut gp = GaussianProcess::new(Box::new(Rbf::isotropic(0.3, 1.0)), 5e-2);
        gp.fit(&xs, &ys).unwrap();
        let params_before = gp.kernel().params();
        let before = gp.log_marginal_likelihood();
        let cfg = HyperFit {
            n_candidates: 0,
            n_noise_candidates: 40,
            ..HYPER_FIT
        };
        let mut rng = StdRng::seed_from_u64(11);
        let after = gp.fit_hyperparameters_with(&cfg, &mut rng).unwrap();
        assert!(
            after >= before,
            "noise search can only improve: {after} vs {before}"
        );
        assert_eq!(gp.kernel().params(), params_before);
        assert!(
            after > before,
            "toy data with tiny true noise should beat 5e-2"
        );
        assert!(gp.noise() < 5e-2, "noise {} should shrink", gp.noise());
    }

    #[test]
    fn hyperfit_draw_order_is_stable_for_full_restarts() {
        // The pre-draw refactor must consume the RNG exactly like the old
        // sequential loop: with noise-only candidates disabled, two
        // configurations differing only in `n_noise_candidates` see
        // identical full-restart candidates, so they pick the same winner.
        let (xs, ys) = toy_data();
        let mk = || {
            let mut gp = GaussianProcess::new(Box::new(Rbf::isotropic(50.0, 0.1)), 1e-4);
            gp.fit(&xs, &ys).unwrap();
            gp
        };
        let mut a = mk();
        let mut b = mk();
        let cfg_a = HyperFit {
            n_noise_candidates: 0,
            ..HYPER_FIT
        };
        let cfg_b = HyperFit {
            n_noise_candidates: 64,
            ..HYPER_FIT
        };
        let mut rng_a = StdRng::seed_from_u64(9);
        let mut rng_b = StdRng::seed_from_u64(9);
        let lml_a = a.fit_hyperparameters_with(&cfg_a, &mut rng_a).unwrap();
        let lml_b = b.fit_hyperparameters_with(&cfg_b, &mut rng_b).unwrap();
        // Extra noise-only candidates can only match or improve the LML.
        assert!(lml_b >= lml_a);
    }
}
