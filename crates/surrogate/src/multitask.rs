//! Multi-task Gaussian process via the intrinsic coregionalization model
//! (tutorial slide 59: "Multi-Target Optimization").
//!
//! Separable multi-output kernel: `K((i,x),(j,x')) = B[i,j] * k(x,x')`,
//! where `B` is a task-similarity matrix. With `B = (1-ρ) I + ρ 11ᵀ`
//! (uniform coregionalization) a single correlation parameter ρ controls
//! how much data collected while optimizing task *i* (say, latency)
//! informs task *j* (say, throughput). ρ is fitted by a marginal-likelihood
//! grid search.

use crate::{Kernel, Prediction, Result, SurrogateError};
use autotune_linalg::{Cholesky, Matrix};

/// One observation attributed to a task.
#[derive(Debug, Clone)]
pub struct TaskObservation {
    /// Task index in `0..n_tasks`.
    pub task: usize,
    /// Input point (encoded configuration).
    pub x: Vec<f64>,
    /// Observed value.
    pub y: f64,
}

/// A multi-task GP over a shared input space.
pub struct MultiTaskGp {
    kernel: Box<dyn Kernel>,
    noise: f64,
    n_tasks: usize,
    /// Cross-task correlation in `[0, 1)`.
    rho: f64,
    obs: Vec<TaskObservation>,
    /// Per-task standardization (mean, std) so tasks with different units
    /// can share a kernel.
    shifts: Vec<(f64, f64)>,
    chol: Option<Cholesky>,
    alpha: Vec<f64>,
}

impl std::fmt::Debug for MultiTaskGp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiTaskGp")
            .field("n_tasks", &self.n_tasks)
            .field("rho", &self.rho)
            .field("n_obs", &self.obs.len())
            .finish()
    }
}

impl MultiTaskGp {
    /// Creates an unfitted multi-task GP.
    pub fn new(kernel: Box<dyn Kernel>, noise: f64, n_tasks: usize) -> Self {
        assert!(n_tasks >= 1, "need at least one task");
        MultiTaskGp {
            kernel,
            noise,
            n_tasks,
            rho: 0.5,
            obs: Vec::new(),
            shifts: vec![(0.0, 1.0); n_tasks],
            chol: None,
            alpha: Vec::new(),
        }
    }

    /// Current cross-task correlation.
    pub fn rho(&self) -> f64 {
        self.rho
    }

    /// Task-similarity entry `B[i,j]`.
    fn b(&self, i: usize, j: usize) -> f64 {
        if i == j {
            1.0
        } else {
            self.rho
        }
    }

    /// Standardized target for observation `o`.
    fn y_std(&self, o: &TaskObservation) -> f64 {
        let (m, s) = self.shifts[o.task];
        (o.y - m) / s
    }

    /// Fits the model, selecting ρ from a grid by marginal likelihood.
    pub fn fit(&mut self, observations: &[TaskObservation]) -> Result<()> {
        if observations.is_empty() {
            return Err(SurrogateError::EmptyTrainingSet);
        }
        let d = observations[0].x.len();
        for o in observations {
            if o.task >= self.n_tasks {
                return Err(SurrogateError::DimensionMismatch {
                    context: format!("task {} out of range (n_tasks={})", o.task, self.n_tasks),
                });
            }
            if o.x.len() != d {
                return Err(SurrogateError::DimensionMismatch {
                    context: "inconsistent input dimensions".into(),
                });
            }
            if !o.y.is_finite() || o.x.iter().any(|v| !v.is_finite()) {
                return Err(SurrogateError::NonFiniteTarget);
            }
        }
        self.obs = observations.to_vec();
        // Per-task standardization.
        for t in 0..self.n_tasks {
            let ys: Vec<f64> = self
                .obs
                .iter()
                .filter(|o| o.task == t)
                .map(|o| o.y)
                .collect();
            let m = autotune_linalg::stats::mean(&ys);
            let s = autotune_linalg::stats::std_dev(&ys);
            self.shifts[t] = (m, if s > 1e-12 { s } else { 1.0 });
        }
        // Grid-search rho by LML.
        let mut best: Option<(f64, f64)> = None; // (rho, lml)
        for step in 0..10 {
            let rho = step as f64 / 10.0;
            self.rho = rho;
            if self.refit().is_err() {
                continue;
            }
            let lml = self.log_marginal_likelihood();
            if best.is_none_or(|(_, b)| lml > b) {
                best = Some((rho, lml));
            }
        }
        let (rho, _) = best.ok_or(SurrogateError::NumericalFailure)?;
        self.rho = rho;
        self.refit()
    }

    /// Absorbs one observation in O(n²) by extending the Cholesky factor
    /// of the ICM kernel matrix in place instead of rebuilding it.
    ///
    /// The cross-task correlation ρ is kept fixed (it is re-selected by
    /// the grid search on the next full [`MultiTaskGp::fit`]); the
    /// per-task standardization of the observation's task is refreshed,
    /// and `alpha` is recomputed with two triangular solves. Falls back to a
    /// full factorization when the new point is numerically dependent on
    /// the training set; on error the model is left as it was.
    pub fn observe(&mut self, obs: TaskObservation) -> Result<()> {
        if obs.task >= self.n_tasks {
            return Err(SurrogateError::DimensionMismatch {
                context: format!("task {} out of range (n_tasks={})", obs.task, self.n_tasks),
            });
        }
        if !obs.y.is_finite() || obs.x.iter().any(|v| !v.is_finite()) {
            return Err(SurrogateError::NonFiniteTarget);
        }
        if self.obs.is_empty() {
            return self.fit(std::slice::from_ref(&obs));
        }
        if obs.x.len() != self.obs[0].x.len() {
            return Err(SurrogateError::DimensionMismatch {
                context: "inconsistent input dimensions".into(),
            });
        }
        let k_col: Vec<f64> = self
            .obs
            .iter()
            .map(|o| self.b(o.task, obs.task) * self.kernel.eval(&o.x, &obs.x))
            .collect();
        let k_diag = self.kernel.eval(&obs.x, &obs.x) + self.noise.max(1e-10);
        let extended = match &mut self.chol {
            Some(chol) => chol.extend(&k_col, k_diag).is_ok(),
            None => false,
        };
        self.obs.push(obs);
        let task = self.obs.last().expect("just pushed").task; // lint: allow(D5) element pushed on the previous line
        let saved_shift = self.shifts[task];
        let ys: Vec<f64> = self
            .obs
            .iter()
            .filter(|o| o.task == task)
            .map(|o| o.y)
            .collect();
        let m = autotune_linalg::stats::mean(&ys);
        let s = autotune_linalg::stats::std_dev(&ys);
        self.shifts[task] = (m, if s > 1e-12 { s } else { 1.0 });
        if extended {
            let chol = self.chol.as_ref().expect("factor present when extended"); // lint: allow(D5) extend success implies factor present
            let y: Vec<f64> = self.obs.iter().map(|o| self.y_std(o)).collect();
            self.alpha = chol.solve_vec(&y);
            return Ok(());
        }
        if let Err(e) = self.refit() {
            self.obs.pop();
            self.shifts[task] = saved_shift;
            return Err(e);
        }
        Ok(())
    }

    fn refit(&mut self) -> Result<()> {
        let n = self.obs.len();
        let mut k = Matrix::from_fn(n, n, |i, j| {
            let (a, b) = (&self.obs[i], &self.obs[j]);
            self.b(a.task, b.task) * self.kernel.eval(&a.x, &b.x)
        });
        k.add_diag(self.noise.max(1e-10));
        let chol = Cholesky::new(&k).map_err(|_| SurrogateError::NumericalFailure)?;
        let y: Vec<f64> = self.obs.iter().map(|o| self.y_std(o)).collect();
        self.alpha = chol.solve_vec(&y);
        self.chol = Some(chol);
        Ok(())
    }

    /// Log marginal likelihood of the current fit.
    pub fn log_marginal_likelihood(&self) -> f64 {
        let Some(chol) = &self.chol else {
            return f64::NEG_INFINITY;
        };
        let y: Vec<f64> = self.obs.iter().map(|o| self.y_std(o)).collect();
        let n = y.len() as f64;
        -0.5 * autotune_linalg::dot(&y, &self.alpha)
            - 0.5 * chol.log_det()
            - 0.5 * n * (2.0 * std::f64::consts::PI).ln()
    }

    /// Predictive distribution for `task` at `x`.
    pub fn predict(&self, task: usize, x: &[f64]) -> Prediction {
        assert!(task < self.n_tasks, "task index out of range");
        let Some(chol) = &self.chol else {
            return Prediction {
                mean: 0.0,
                variance: self.kernel.diag(x),
            };
        };
        let k: Vec<f64> = self
            .obs
            .iter()
            .map(|o| self.b(task, o.task) * self.kernel.eval(&o.x, x))
            .collect();
        let mean_std = autotune_linalg::dot(&k, &self.alpha);
        let v = chol.solve_lower(&k);
        let var_std = (self.kernel.diag(x) - autotune_linalg::dot(&v, &v)).max(0.0);
        let (m, s) = self.shifts[task];
        Prediction {
            mean: m + s * mean_std,
            variance: s * s * var_std,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rbf;

    /// Two correlated tasks: task 1 = task 0 shifted by a constant.
    fn correlated_observations() -> Vec<TaskObservation> {
        let f = |x: f64| (3.0 * x).sin();
        let mut obs = Vec::new();
        // Task 0 densely observed.
        for i in 0..12 {
            let x = i as f64 / 11.0;
            obs.push(TaskObservation {
                task: 0,
                x: vec![x],
                y: f(x),
            });
        }
        // Task 1 sparsely observed (same shape, offset +10).
        for &x in &[0.0, 0.5, 1.0] {
            obs.push(TaskObservation {
                task: 1,
                x: vec![x],
                y: f(x) + 10.0,
            });
        }
        obs
    }

    #[test]
    fn transfer_improves_sparse_task() {
        let obs = correlated_observations();
        let mut mt = MultiTaskGp::new(Box::new(Rbf::isotropic(0.3, 1.0)), 1e-6, 2);
        mt.fit(&obs).unwrap();
        // Predict task 1 at a point it never observed; the dense task-0
        // data should shape the interpolation.
        let truth = (3.0f64 * 0.25).sin() + 10.0;
        let p = mt.predict(1, &[0.25]);
        assert!(
            (p.mean - truth).abs() < 0.4,
            "transfer prediction {} vs truth {truth}",
            p.mean
        );
        // Fitted correlation should be clearly positive.
        assert!(
            mt.rho() >= 0.5,
            "rho {} too small for perfectly correlated tasks",
            mt.rho()
        );
    }

    #[test]
    fn uncorrelated_tasks_learn_low_rho() {
        let mut obs = Vec::new();
        // Task 0: increasing; task 1: an unrelated oscillation, both dense.
        for i in 0..15 {
            let x = i as f64 / 14.0;
            obs.push(TaskObservation {
                task: 0,
                x: vec![x],
                y: x,
            });
            obs.push(TaskObservation {
                task: 1,
                x: vec![x],
                y: (20.0 * x).sin(),
            });
        }
        let mut mt = MultiTaskGp::new(Box::new(Rbf::isotropic(0.3, 1.0)), 1e-4, 2);
        mt.fit(&obs).unwrap();
        assert!(
            mt.rho() <= 0.5,
            "rho {} too large for unrelated tasks",
            mt.rho()
        );
    }

    #[test]
    fn single_task_reduces_to_gp() {
        let obs: Vec<TaskObservation> = (0..8)
            .map(|i| {
                let x = i as f64 / 7.0;
                TaskObservation {
                    task: 0,
                    x: vec![x],
                    y: x * x,
                }
            })
            .collect();
        let mut mt = MultiTaskGp::new(Box::new(Rbf::isotropic(0.4, 1.0)), 1e-8, 1);
        mt.fit(&obs).unwrap();
        let p = mt.predict(0, &[0.5]);
        assert!((p.mean - 0.25).abs() < 0.05, "mean {}", p.mean);
    }

    #[test]
    fn rejects_out_of_range_task() {
        let mut mt = MultiTaskGp::new(Box::new(Rbf::isotropic(1.0, 1.0)), 1e-6, 2);
        let bad = vec![TaskObservation {
            task: 5,
            x: vec![0.0],
            y: 1.0,
        }];
        assert!(mt.fit(&bad).is_err());
    }

    #[test]
    fn rejects_empty() {
        let mut mt = MultiTaskGp::new(Box::new(Rbf::isotropic(1.0, 1.0)), 1e-6, 2);
        assert_eq!(mt.fit(&[]).unwrap_err(), SurrogateError::EmptyTrainingSet);
    }

    #[test]
    fn incremental_observe_matches_full_refit() {
        let obs = correlated_observations();
        // Seed both models with the same prefix so they share the same
        // fitted rho, then feed the tail incrementally vs. via full fit
        // with that rho frozen.
        let (head, tail) = obs.split_at(obs.len() - 4);
        let mut inc = MultiTaskGp::new(Box::new(Rbf::isotropic(0.3, 1.0)), 1e-6, 2);
        inc.fit(head).unwrap();
        let rho = inc.rho();
        for o in tail {
            inc.observe(o.clone()).unwrap();
        }
        assert_eq!(inc.rho(), rho, "observe must not move rho");
        let mut full = MultiTaskGp::new(Box::new(Rbf::isotropic(0.3, 1.0)), 1e-6, 2);
        full.fit(head).unwrap();
        full.obs = obs.clone();
        for t in 0..2 {
            let ys: Vec<f64> = obs.iter().filter(|o| o.task == t).map(|o| o.y).collect();
            let m = autotune_linalg::stats::mean(&ys);
            let s = autotune_linalg::stats::std_dev(&ys);
            full.shifts[t] = (m, if s > 1e-12 { s } else { 1.0 });
        }
        full.rho = rho;
        full.refit().unwrap();
        for task in 0..2 {
            for q in [0.1, 0.25, 0.6, 0.9] {
                let a = inc.predict(task, &[q]);
                let b = full.predict(task, &[q]);
                assert!(
                    (a.mean - b.mean).abs() < 1e-7,
                    "task {task} mean at {q}: {} vs {}",
                    a.mean,
                    b.mean
                );
                assert!(
                    (a.variance - b.variance).abs() < 1e-7,
                    "task {task} variance at {q}: {} vs {}",
                    a.variance,
                    b.variance
                );
            }
        }
        assert_eq!(inc.obs.len(), full.obs.len());
    }

    #[test]
    fn observe_from_empty_bootstraps_a_fit() {
        let mut mt = MultiTaskGp::new(Box::new(Rbf::isotropic(0.4, 1.0)), 1e-6, 2);
        mt.observe(TaskObservation {
            task: 0,
            x: vec![0.2],
            y: 3.0,
        })
        .unwrap();
        assert_eq!(mt.obs.len(), 1);
        let p = mt.predict(0, &[0.2]);
        assert!((p.mean - 3.0).abs() < 0.1, "mean {}", p.mean);
    }

    #[test]
    fn observe_duplicate_point_falls_back_to_full_refit() {
        let mut mt = MultiTaskGp::new(Box::new(Rbf::isotropic(0.4, 1.0)), 0.0, 1);
        for y in [1.0, 1.1, 0.9] {
            mt.observe(TaskObservation {
                task: 0,
                x: vec![0.5],
                y,
            })
            .unwrap();
        }
        assert_eq!(mt.obs.len(), 3);
        let p = mt.predict(0, &[0.5]);
        assert!((p.mean - 1.0).abs() < 0.1);
    }

    #[test]
    fn observe_rejects_bad_input_without_mutating() {
        let obs = correlated_observations();
        let mut mt = MultiTaskGp::new(Box::new(Rbf::isotropic(0.3, 1.0)), 1e-6, 2);
        mt.fit(&obs).unwrap();
        let before = mt.predict(1, &[0.4]);
        assert!(mt
            .observe(TaskObservation {
                task: 7,
                x: vec![0.1],
                y: 1.0,
            })
            .is_err());
        assert!(mt
            .observe(TaskObservation {
                task: 0,
                x: vec![0.1, 0.2],
                y: 1.0,
            })
            .is_err());
        assert!(mt
            .observe(TaskObservation {
                task: 0,
                x: vec![0.1],
                y: f64::NAN,
            })
            .is_err());
        assert_eq!(mt.obs.len(), obs.len());
        assert_eq!(mt.predict(1, &[0.4]), before);
    }

    #[test]
    fn unfitted_predicts_prior() {
        let mt = MultiTaskGp::new(Box::new(Rbf::isotropic(1.0, 2.0)), 1e-6, 2);
        let p = mt.predict(1, &[0.3]);
        assert_eq!(p.mean, 0.0);
        assert!((p.variance - 4.0).abs() < 1e-12);
    }
}
