//! CMA-ES: covariance matrix adaptation evolution strategy (tutorial slide
//! 50; Hansen 2023).
//!
//! Samples each generation from `N(m, σ²C)`, ranks by objective, and
//! adapts mean, step size (CSA) and covariance (rank-1 + rank-μ updates).
//! Runs in the unit cube over [`autotune_space::Space::encode_unit`], with
//! out-of-bounds samples clamped — adequate for box-bounded knob spaces.

use crate::{BestTracker, Observation, Optimizer};
use autotune_linalg::{symmetric_eigen, Matrix};
use autotune_space::{Config, Space};
use rand::{Rng, RngCore};

/// Initial step size σ₀ in unit-cube units. The population size λ is
/// Hansen's `4 + ⌊3 ln d⌋`.
const SIGMA0: f64 = 0.3;

/// State of the CMA-ES strategy.
pub struct CmaEs {
    space: Space,
    dim: usize,
    lambda: usize,
    mu: usize,
    /// Recombination weights for the top-μ individuals.
    weights: Vec<f64>,
    mu_eff: f64,
    // Strategy parameters.
    cc: f64,
    cs: f64,
    c1: f64,
    cmu: f64,
    damps: f64,
    chi_n: f64,
    // Dynamic state.
    mean: Vec<f64>,
    sigma: f64,
    cov: Matrix,
    path_c: Vec<f64>,
    path_s: Vec<f64>,
    /// Eigendecomposition cache of `cov`: `B diag(D) Bᵀ`.
    eig_b: Matrix,
    eig_d: Vec<f64>,
    /// Pending individuals of the current generation: (z, x, config key).
    generation: Vec<(Vec<f64>, Vec<f64>)>,
    /// Observed (x, value) pairs of the current generation.
    observed: Vec<(Vec<f64>, f64)>,
    next_in_gen: usize,
    tracker: BestTracker,
}

impl std::fmt::Debug for CmaEs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CmaEs")
            .field("dim", &self.dim)
            .field("lambda", &self.lambda)
            .field("sigma", &self.sigma)
            .finish()
    }
}

impl CmaEs {
    /// Creates a CMA-ES optimizer starting from the space's default
    /// configuration.
    pub fn new(space: Space) -> Self {
        let dim = space.len().max(1);
        let lambda = 4 + (3.0 * (dim as f64).ln()).floor() as usize;
        let mu = lambda / 2;
        // log-weights: w_i ∝ ln(μ+1/2) − ln(i)
        let raw: Vec<f64> = (1..=mu)
            .map(|i| ((mu as f64) + 0.5).ln() - (i as f64).ln())
            .collect();
        let sum: f64 = raw.iter().sum();
        let weights: Vec<f64> = raw.iter().map(|w| w / sum).collect();
        let mu_eff = 1.0 / weights.iter().map(|w| w * w).sum::<f64>();
        let n = dim as f64;
        let cc = (4.0 + mu_eff / n) / (n + 4.0 + 2.0 * mu_eff / n);
        let cs = (mu_eff + 2.0) / (n + mu_eff + 5.0);
        let c1 = 2.0 / ((n + 1.3) * (n + 1.3) + mu_eff);
        let cmu =
            (1.0 - c1).min(2.0 * (mu_eff - 2.0 + 1.0 / mu_eff) / ((n + 2.0) * (n + 2.0) + mu_eff));
        let damps = 1.0 + 2.0 * ((mu_eff - 1.0) / (n + 1.0)).sqrt().max(0.0) + cs;
        let chi_n = n.sqrt() * (1.0 - 1.0 / (4.0 * n) + 1.0 / (21.0 * n * n));
        let mean = space
            .encode_unit(&space.default_config())
            .expect("default config encodes"); // lint: allow(D5) default config always encodes
        CmaEs {
            space,
            dim,
            lambda,
            mu,
            weights,
            mu_eff,
            cc,
            cs,
            c1,
            cmu,
            damps,
            chi_n,
            mean,
            sigma: SIGMA0,
            cov: Matrix::identity(dim),
            path_c: vec![0.0; dim],
            path_s: vec![0.0; dim],
            eig_b: Matrix::identity(dim),
            eig_d: vec![1.0; dim],
            generation: Vec::new(),
            observed: Vec::new(),
            next_in_gen: 0,
            tracker: BestTracker::default(),
        }
    }

    /// Population size λ.
    pub fn lambda(&self) -> usize {
        self.lambda
    }

    /// Current global step size σ.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Refreshes the eigendecomposition cache of the covariance.
    fn update_eigen(&mut self) {
        // Symmetrize defensively before decomposing.
        let n = self.dim;
        for i in 0..n {
            for j in 0..i {
                let avg = 0.5 * (self.cov[(i, j)] + self.cov[(j, i)]);
                self.cov[(i, j)] = avg;
                self.cov[(j, i)] = avg;
            }
        }
        if let Ok(e) = symmetric_eigen(&self.cov) {
            self.eig_d = e.values.iter().map(|&v| v.max(1e-20).sqrt()).collect();
            self.eig_b = e.vectors;
        }
    }

    /// Samples one individual: returns `(z, x)` with
    /// `x = m + σ B D z` clamped to the unit cube.
    fn sample_individual(&self, rng: &mut dyn RngCore) -> (Vec<f64>, Vec<f64>) {
        let z: Vec<f64> = (0..self.dim)
            .map(|_| {
                let u1: f64 = rng.gen::<f64>().max(1e-12);
                let u2: f64 = rng.gen();
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
            })
            .collect();
        // y = B D z
        let dz: Vec<f64> = z
            .iter()
            .zip(&self.eig_d)
            .map(|(&zi, &di)| zi * di)
            .collect();
        let y = self
            .eig_b
            .matvec(&dz)
            .expect("eigenvector matrix is dim x dim"); // lint: allow(D5) eigenbasis is square with space dimension
        let x: Vec<f64> = self
            .mean
            .iter()
            .zip(&y)
            .map(|(&m, &yi)| (m + self.sigma * yi).clamp(0.0, 1.0))
            .collect();
        (z, x)
    }

    /// Fills the generation buffer.
    fn refill_generation(&mut self, rng: &mut dyn RngCore) {
        self.generation = (0..self.lambda)
            .map(|_| self.sample_individual(rng))
            .collect();
        self.next_in_gen = 0;
    }

    /// Applies the CMA update once a full generation is observed.
    fn update_distribution(&mut self) {
        // Rank ascending (minimization).
        let mut order: Vec<usize> = (0..self.observed.len()).collect();
        order.sort_by(|&a, &b| self.observed[a].1.total_cmp(&self.observed[b].1));
        let old_mean = self.mean.clone();
        // New mean: weighted recombination of the top-μ.
        let mut new_mean = vec![0.0; self.dim];
        for (w, &idx) in self.weights.iter().zip(order.iter().take(self.mu)) {
            autotune_linalg::axpy(*w, &self.observed[idx].0, &mut new_mean);
        }
        // y_w = (m' - m) / σ
        let y_w: Vec<f64> = new_mean
            .iter()
            .zip(&old_mean)
            .map(|(&a, &b)| (a - b) / self.sigma.max(1e-300))
            .collect();
        self.mean = new_mean;

        // C^{-1/2} y_w = B D^{-1} Bᵀ y_w
        let bty = self.eig_b.transpose().matvec(&y_w).expect("dims match"); // lint: allow(D5) factor dims fixed at construction
        let dinv_bty: Vec<f64> = bty
            .iter()
            .zip(&self.eig_d)
            .map(|(&v, &d)| v / d.max(1e-20))
            .collect();
        let c_inv_sqrt_y = self.eig_b.matvec(&dinv_bty).expect("dims match"); // lint: allow(D5) factor dims fixed at construction

        // Step-size path and CSA update.
        let cs = self.cs;
        let coef_s = (cs * (2.0 - cs) * self.mu_eff).sqrt();
        for (p, &c) in self.path_s.iter_mut().zip(&c_inv_sqrt_y) {
            *p = (1.0 - cs) * *p + coef_s * c;
        }
        let ps_norm = autotune_linalg::norm2(&self.path_s);
        self.sigma *= ((cs / self.damps) * (ps_norm / self.chi_n - 1.0)).exp();
        self.sigma = self.sigma.clamp(1e-8, 1.0);

        // Covariance path (with stall indicator h_σ).
        let gen_count = (self.tracker.n() / self.lambda).max(1) as f64;
        let h_sigma = if ps_norm / (1.0 - (1.0 - cs).powf(2.0 * gen_count)).sqrt()
            < (1.4 + 2.0 / (self.dim as f64 + 1.0)) * self.chi_n
        {
            1.0
        } else {
            0.0
        };
        let cc = self.cc;
        let coef_c = (cc * (2.0 - cc) * self.mu_eff).sqrt();
        for (p, &y) in self.path_c.iter_mut().zip(&y_w) {
            *p = (1.0 - cc) * *p + h_sigma * coef_c * y;
        }

        // Rank-1 + rank-μ covariance update.
        let c1 = self.c1;
        let cmu = self.cmu;
        let delta_h = (1.0 - h_sigma) * cc * (2.0 - cc);
        for i in 0..self.dim {
            for j in 0..self.dim {
                let mut rank_mu = 0.0;
                for (w, &idx) in self.weights.iter().zip(order.iter().take(self.mu)) {
                    let yi = (self.observed[idx].0[i] - old_mean[i]) / self.sigma.max(1e-300);
                    let yj = (self.observed[idx].0[j] - old_mean[j]) / self.sigma.max(1e-300);
                    rank_mu += w * yi * yj;
                }
                self.cov[(i, j)] = (1.0 - c1 - cmu + c1 * delta_h) * self.cov[(i, j)]
                    + c1 * self.path_c[i] * self.path_c[j]
                    + cmu * rank_mu;
            }
        }
        self.update_eigen();
        self.observed.clear();
    }
}

impl Optimizer for CmaEs {
    fn suggest(&mut self, rng: &mut dyn RngCore) -> Config {
        if self.next_in_gen >= self.generation.len() {
            self.refill_generation(rng);
        }
        let (_, x) = &self.generation[self.next_in_gen];
        self.next_in_gen += 1;
        self.space
            .decode_unit(x)
            .expect("unit vector of space dimension must decode") // lint: allow(D5) unit vector built with space dimension
    }

    fn observe(&mut self, config: &Config, value: f64) {
        self.tracker.observe(config, value);
        let x = self
            .space
            .encode_unit(config)
            .expect("configs against this space encode"); // lint: allow(D5) observed configs originate from this space
                                                          // Crashed trials rank last.
        let v = if value.is_nan() { f64::INFINITY } else { value };
        self.observed.push((x, v));
        if self.observed.len() >= self.lambda {
            self.update_distribution();
        }
    }

    fn best(&self) -> Option<&Observation> {
        self.tracker.best()
    }

    fn space(&self) -> &Space {
        &self.space
    }

    fn name(&self) -> &str {
        "cma_es"
    }

    fn n_observed(&self) -> usize {
        self.tracker.n()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{run_loop, sphere, sphere_space};

    #[test]
    fn solves_sphere() {
        let mut opt = CmaEs::new(sphere_space());
        let best = run_loop(&mut opt, sphere, 120, 7);
        assert!(best < 0.01, "CMA-ES best {best} after 120 trials");
    }

    #[test]
    fn solves_rosenbrock_like_valley() {
        use autotune_space::{Param, Space};
        let space = Space::builder()
            .add(Param::float("a", -2.0, 2.0))
            .add(Param::float("b", -1.0, 3.0))
            .build()
            .unwrap();
        let rosen = |c: &Config| {
            let a = c.get_f64("a").unwrap();
            let b = c.get_f64("b").unwrap();
            100.0 * (b - a * a).powi(2) + (1.0 - a).powi(2)
        };
        let mut opt = CmaEs::new(space);
        let best = run_loop(&mut opt, rosen, 400, 13);
        assert!(best < 0.5, "CMA-ES Rosenbrock best {best}");
    }

    #[test]
    fn sigma_adapts_downward_on_convergence() {
        let mut opt = CmaEs::new(sphere_space());
        let s0 = opt.sigma();
        run_loop(&mut opt, sphere, 200, 17);
        assert!(
            opt.sigma() < s0,
            "sigma {} should shrink from {s0}",
            opt.sigma()
        );
    }

    #[test]
    fn lambda_default_scales_with_dim() {
        let opt = CmaEs::new(sphere_space());
        assert!(opt.lambda() >= 4);
    }

    #[test]
    fn nan_observation_ranks_last() {
        let space = sphere_space();
        let mut opt = CmaEs::new(space.clone());
        let mut rng = rand::rngs::mock::StepRng::new(0, 0x9E3779B97F4A7C15);
        // Feed a full generation; one crash.
        for i in 0..opt.lambda() {
            let c = opt.suggest(&mut rng);
            let v = if i == 0 { f64::NAN } else { sphere(&c) };
            opt.observe(&c, v);
        }
        // The update must have consumed the generation without panicking.
        assert!(opt.observed.is_empty());
    }

    #[test]
    fn suggestions_stay_in_bounds() {
        let space = sphere_space();
        let mut opt = CmaEs::new(space.clone());
        // Three times the initial step, so most samples leave the cube and
        // are clamped.
        opt.sigma = 3.0 * SIGMA0;
        let mut rng = rand::rngs::mock::StepRng::new(1, 0x9E3779B97F4A7C15);
        for _ in 0..30 {
            let c = opt.suggest(&mut rng);
            assert!(space.validate_config(&c).is_ok());
        }
    }
}
