//! Black-box optimizers for systems autotuning.
//!
//! Implements the full optimizer taxonomy of the SIGMOD 2025 autotuning
//! tutorial:
//!
//! | Tutorial section | Implementation |
//! |---|---|
//! | Grid search (slide 29) | [`GridSearch`] |
//! | Random search (slide 30) | [`RandomSearch`] |
//! | Simulated annealing (slide 7) | [`SimulatedAnnealing`] |
//! | Bayesian optimization (slides 32-48) | [`BayesianOptimizer`] with [`AcquisitionFunction`] |
//! | SMAC / random-forest surrogate (slide 50) | [`BayesianOptimizer::smac`] |
//! | CMA-ES (slide 50) | [`CmaEs`] |
//! | Particle swarm (slide 50) | [`ParticleSwarm`] |
//! | Genetic algorithms (slide 81) | [`GeneticAlgorithm`] |
//! | Multi-armed bandits for discrete knobs (slide 51) | [`bandit`] |
//! | Multi-objective / ParEGO (slide 58) | [`moo`], [`NsgaII`] |
//! | Nelder–Mead local refinement | [`NelderMead`] |
//!
//! # The ask/tell contract
//!
//! Every optimizer implements [`Optimizer`]: `suggest` a configuration,
//! `observe` its measured objective, repeat (slide 34's "optimizer as a
//! black box"). **Convention: objectives are minimized.** Callers
//! maximizing throughput negate before calling `observe`.

#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

mod annealing;
mod bo;
mod cmaes;
mod ga;
mod grid;
mod nelder_mead;
mod nsga;
mod pso;
mod random;

pub mod acquisition;
pub mod bandit;
pub mod moo;

pub use acquisition::AcquisitionFunction;
pub use annealing::SimulatedAnnealing;
pub use bo::{BayesianOptimizer, BoConfig, SurrogateChoice};
pub use cmaes::CmaEs;
pub use ga::{GaConfig, GeneticAlgorithm};
pub use grid::GridSearch;
pub use nelder_mead::NelderMead;
pub use nsga::NsgaII;
pub use pso::ParticleSwarm;
pub use random::RandomSearch;

use autotune_space::{Config, Space};
use rand::RngCore;

/// One completed trial: a configuration and its measured objective value
/// (smaller is better).
#[derive(Debug, Clone, PartialEq)]
pub struct Observation {
    /// The evaluated configuration.
    pub config: Config,
    /// The measured objective (minimization convention).
    pub value: f64,
}

/// The ask/tell optimizer interface (tutorial slide 34).
///
/// Implementations are sequential state machines: `suggest` may depend on
/// everything observed so far. Objectives follow the **minimization**
/// convention.
pub trait Optimizer: Send {
    /// Proposes the next configuration to evaluate.
    fn suggest(&mut self, rng: &mut dyn RngCore) -> Config;

    /// Reports the measured objective for a configuration (not necessarily
    /// the most recently suggested one — asynchronous schedulers report
    /// out of order).
    fn observe(&mut self, config: &Config, value: f64);

    /// Best observation so far, if any.
    fn best(&self) -> Option<&Observation>;

    /// The space this optimizer searches.
    fn space(&self) -> &Space;

    /// Human-readable optimizer name for experiment reports.
    fn name(&self) -> &str;

    /// Marks a suggested configuration as *in flight*: proposed but not
    /// yet observed. The default is a no-op; model-based optimizers
    /// override it to pin a constant-liar pseudo-observation at the point
    /// so concurrent suggestions spread out instead of piling onto one
    /// optimum (tutorial slide 57). The mark is released when
    /// [`Optimizer::observe`] reports the real value.
    fn mark_pending(&mut self, _config: &Config) {}

    /// Releases a pending mark without reporting an observation — the
    /// trial was lost to infrastructure and carries no information about
    /// the configuration. The default is a no-op, matching the default
    /// [`Optimizer::mark_pending`].
    fn unmark_pending(&mut self, _config: &Config) {}

    /// Proposes `k` configurations for parallel evaluation (tutorial slide
    /// 57): `k` suggestions, each marked pending so batch diversity falls
    /// out of [`Optimizer::mark_pending`].
    fn suggest_batch(&mut self, k: usize, rng: &mut dyn RngCore) -> Vec<Config> {
        (0..k)
            .map(|_| {
                let config = self.suggest(rng);
                self.mark_pending(&config);
                config
            })
            .collect()
    }

    /// Number of observations reported so far.
    fn n_observed(&self) -> usize;

    /// Number of full surrogate refits performed so far: hyperparameter
    /// refit cycles, plus full fits forced because the model refused an
    /// incremental update (e.g. the random forest has no `observe` path,
    /// so every "incremental" step is silently a full O(trees · n log n)
    /// refit — this counter is where that cost surfaces). The default is 0
    /// for optimizers without a refitted model; model-based optimizers
    /// override it so campaign telemetry can attribute tuner overhead to
    /// refit cycles (executors poll this counter after each
    /// `observe`/`suggest` round and emit a refit event when it advances).
    fn n_refits(&self) -> usize {
        0
    }

    /// Number of O(n²) in-place surrogate updates performed so far (the
    /// incremental alternative to a full refit). Default 0 for optimizers
    /// without an incremental model path; executors poll this counter and
    /// emit a model-update event when it advances.
    fn n_model_updates(&self) -> usize {
        0
    }
}

/// Shared best-tracking bookkeeping used by every optimizer.
#[derive(Debug, Clone, Default)]
pub(crate) struct BestTracker {
    best: Option<Observation>,
    n: usize,
}

impl BestTracker {
    pub(crate) fn observe(&mut self, config: &Config, value: f64) {
        self.n += 1;
        if value.is_nan() {
            return; // a crashed trial can never be the best
        }
        if self.best.as_ref().is_none_or(|b| value < b.value) {
            self.best = Some(Observation {
                config: config.clone(),
                value,
            });
        }
    }

    pub(crate) fn best(&self) -> Option<&Observation> {
        self.best.as_ref()
    }

    pub(crate) fn n(&self) -> usize {
        self.n
    }
}

#[cfg(test)]
pub(crate) mod test_util {
    use autotune_space::{Config, Param, Space};

    /// 2-D sphere-like space used across optimizer tests.
    pub fn sphere_space() -> Space {
        Space::builder()
            .add(Param::float("x", -2.0, 2.0))
            .add(Param::float("y", -2.0, 2.0))
            .build()
            .unwrap()
    }

    /// Sphere objective with optimum 0 at (0.5, -0.5).
    pub fn sphere(config: &Config) -> f64 {
        let x = config.get_f64("x").unwrap();
        let y = config.get_f64("y").unwrap();
        (x - 0.5).powi(2) + (y + 0.5).powi(2)
    }

    /// Runs an optimizer loop for `budget` trials and returns the best value.
    pub fn run_loop(
        opt: &mut dyn super::Optimizer,
        objective: impl Fn(&Config) -> f64,
        budget: usize,
        seed: u64,
    ) -> f64 {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..budget {
            let cfg = opt.suggest(&mut rng);
            let v = objective(&cfg);
            opt.observe(&cfg, v);
        }
        opt.best().expect("budget > 0").value
    }
}
