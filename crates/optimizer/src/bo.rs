//! Sequential model-based (Bayesian) optimization (tutorial slides 32-50).
//!
//! The loop (slide 33):
//! 1. evaluate the expensive function,
//! 2. update the statistical model,
//! 3. maximize the acquisition function to pick the next configuration,
//! 4. repeat.
//!
//! Two surrogate choices are built in: a Gaussian process over the one-hot
//! encoding (the classic), and a SMAC-style random forest over the unit
//! encoding (better for conditional/categorical spaces, slide 50-51).
//! Acquisition maximization is random multi-start plus coordinate-wise
//! local refinement — derivative-free so it works identically for both
//! surrogates.

use crate::{AcquisitionFunction, BestTracker, Observation, Optimizer};
use autotune_space::{Config, Space};
use autotune_surrogate::{
    GaussianProcess, Matern52, RandomForest, SparseGaussianProcess, Surrogate, TrustRegionConfig,
    TrustRegionSurrogate,
};
use rand::{RngCore, SeedableRng};

/// Which surrogate model drives the optimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SurrogateChoice {
    /// Gaussian process with a Matérn-5/2 ARD kernel over the one-hot
    /// encoding.
    GaussianProcess,
    /// Random forest over the unit encoding (SMAC).
    RandomForest,
    /// Sparse (inducing-point) GP over the one-hot encoding: O(m²)
    /// suggest/observe independent of n — for campaigns that outlive the
    /// dense GP's O(n²)/O(n³) costs.
    SparseGaussianProcess,
    /// TuRBO-style local trust-region GP over the one-hot encoding:
    /// models only the incumbent's neighborhood, capped at a fixed local
    /// size.
    TrustRegion,
}

/// Tunables of the BO loop itself.
#[derive(Debug, Clone)]
pub struct BoConfig {
    /// Random configurations evaluated before the model kicks in.
    pub n_init: usize,
    /// Acquisition function.
    pub acquisition: AcquisitionFunction,
    /// Random candidates scored per suggestion.
    pub n_candidates: usize,
    /// Local-refinement iterations around the best random candidate.
    pub n_local_steps: usize,
    /// Refit kernel hyperparameters every this many observations
    /// (0 disables refitting).
    pub refit_every: usize,
    /// Surrogate family.
    pub surrogate: SurrogateChoice,
}

impl Default for BoConfig {
    fn default() -> Self {
        BoConfig {
            n_init: 8,
            acquisition: AcquisitionFunction::ExpectedImprovement,
            n_candidates: 256,
            n_local_steps: 20,
            refit_every: 5,
            surrogate: SurrogateChoice::GaussianProcess,
        }
    }
}

/// Candidates are scored this many at a time through
/// [`Surrogate::predict_many`].
const CANDIDATE_BLOCK: usize = 32;

/// At or above this many candidate blocks, the blocks are scored on
/// parallel threads.
const MIN_PAR_BLOCKS: usize = 2;

/// Bayesian optimizer over a configuration space.
pub struct BayesianOptimizer {
    space: Space,
    config: BoConfig,
    model: Box<dyn Surrogate>,
    /// All observations as (encoded point, value).
    xs: Vec<Vec<f64>>,
    ys: Vec<f64>,
    /// Raw observations for warm-start export.
    history: Vec<Observation>,
    /// Constant-liar values currently pinned for in-flight batch points.
    liars: Vec<Vec<f64>>,
    dirty: bool,
    observations_since_refit: usize,
    n_refits: usize,
    /// How many leading entries of `xs`/`ys` the surrogate has absorbed
    /// (0 = unknown/unfitted, forcing the next fit to be a full one).
    model_n: usize,
    /// The current fit includes constant-liar pseudo-observations, so it
    /// cannot be extended incrementally with real data.
    model_liars: bool,
    /// In-place surrogate updates performed (vs. full refits).
    n_model_updates: usize,
    /// Absorb observations into the surrogate with O(n²) in-place updates
    /// ([`Surrogate::observe`]) when possible. Always true outside this
    /// module's tests, which clear it to get the refit-before-every-
    /// suggestion reference the in-place path is held bitwise equal to.
    incremental: bool,
    /// Finite-valued observations seen (crashes excluded): the random-init
    /// phase must collect this many *informative* points. A warm start
    /// consisting purely of crash penalties gives the surrogate no
    /// contrast, so it must not satisfy `n_init` by itself.
    n_finite: usize,
    tracker: BestTracker,
}

impl std::fmt::Debug for BayesianOptimizer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BayesianOptimizer")
            .field("surrogate", &self.config.surrogate)
            .field("acquisition", &self.config.acquisition)
            .field("n_observed", &self.ys.len())
            .finish()
    }
}

impl BayesianOptimizer {
    /// Creates a BO instance with explicit configuration.
    pub fn new(space: Space, config: BoConfig) -> Self {
        let model: Box<dyn Surrogate> = match config.surrogate {
            SurrogateChoice::GaussianProcess => {
                let d = space.onehot_dim().max(1);
                Box::new(GaussianProcess::new(
                    Box::new(Matern52::ard(vec![0.5; d], 1.0)),
                    1e-6,
                ))
            }
            SurrogateChoice::RandomForest => Box::new(RandomForest::default_forest()),
            SurrogateChoice::SparseGaussianProcess => {
                let d = space.onehot_dim().max(1);
                // 256 inducing points keep a suggest under a few
                // microseconds and the approximation near-exact on the
                // smooth surfaces tuning targets have.
                Box::new(SparseGaussianProcess::new(
                    Box::new(Matern52::ard(vec![0.5; d], 1.0)),
                    256,
                ))
            }
            SurrogateChoice::TrustRegion => {
                let d = space.onehot_dim().max(1);
                Box::new(TrustRegionSurrogate::new(
                    Box::new(Matern52::ard(vec![0.5; d], 1.0)),
                    TrustRegionConfig {
                        // A one-hot categorical flip moves two encoded
                        // coordinates by 1.0 (L∞ = 1.0); any sub-1.0
                        // radius would freeze every categorical at the
                        // incumbent's value. Start with single flips
                        // in-region and let the shrink dynamics tighten.
                        init_radius: 1.0,
                        ..TrustRegionConfig::default()
                    },
                ))
            }
        };
        BayesianOptimizer {
            space,
            config,
            model,
            xs: Vec::new(),
            ys: Vec::new(),
            history: Vec::new(),
            liars: Vec::new(),
            dirty: false,
            observations_since_refit: 0,
            n_refits: 0,
            model_n: 0,
            model_liars: false,
            n_model_updates: 0,
            incremental: true,
            n_finite: 0,
            tracker: BestTracker::default(),
        }
    }

    /// GP-surrogate BO with default settings.
    pub fn gp(space: Space) -> Self {
        BayesianOptimizer::new(space, BoConfig::default())
    }

    /// SMAC: random-forest surrogate with EI.
    pub fn smac(space: Space) -> Self {
        BayesianOptimizer::new(
            space,
            BoConfig {
                surrogate: SurrogateChoice::RandomForest,
                ..Default::default()
            },
        )
    }

    /// Sparse-GP BO: inducing-point surrogate with O(m²) suggest/observe
    /// independent of n — the long-campaign (100k-observation) variant.
    pub fn sparse_gp(space: Space) -> Self {
        BayesianOptimizer::new(
            space,
            BoConfig {
                surrogate: SurrogateChoice::SparseGaussianProcess,
                ..Default::default()
            },
        )
    }

    /// TuRBO-style BO: local trust-region GP around the incumbent with a
    /// capped local model, so per-step cost is flat in campaign length.
    pub fn turbo(space: Space) -> Self {
        BayesianOptimizer::new(
            space,
            BoConfig {
                surrogate: SurrogateChoice::TrustRegion,
                ..Default::default()
            },
        )
    }

    /// Encodes a config per the surrogate's preferred layout.
    fn encode(&self, config: &Config) -> Vec<f64> {
        let r = match self.config.surrogate {
            SurrogateChoice::GaussianProcess
            | SurrogateChoice::SparseGaussianProcess
            | SurrogateChoice::TrustRegion => self.space.encode_onehot(config),
            SurrogateChoice::RandomForest => self.space.encode_unit(config),
        };
        r.expect("configs produced against this space must encode") // lint: allow(D5) configs originate from this space
    }

    /// Imports prior observations (knowledge transfer / warm start,
    /// tutorial slide 67) without counting them against `n_init`.
    pub fn warm_start(&mut self, observations: &[Observation]) {
        for obs in observations {
            self.observe(&obs.config, obs.value);
        }
    }

    /// All raw observations so far (for exporting to another tuner).
    pub fn history(&self) -> &[Observation] {
        &self.history
    }

    /// Whether the surrogate can absorb the next data point in place: the
    /// model must hold exactly a liar-free prefix of the real data.
    fn can_extend_model(&self) -> bool {
        self.incremental && self.liars.is_empty() && !self.model_liars && self.model_n > 0
    }

    /// Refits the surrogate if new data arrived since the last fit.
    fn ensure_fitted(&mut self) {
        if !self.dirty || self.ys.is_empty() {
            return;
        }
        // Incremental catch-up: when the model holds a clean prefix of the
        // data, absorb the appended observations in place (O(n²) each)
        // instead of refactorizing the whole kernel matrix (O(n³)).
        let mut fallback = false;
        if self.can_extend_model() && self.model_n < self.xs.len() {
            let mut ok = true;
            for i in self.model_n..self.xs.len() {
                let x = self.xs[i].clone();
                if self.model.observe(&x, self.ys[i]).is_err() {
                    ok = false;
                    break;
                }
                self.model_n += 1;
                self.n_model_updates += 1;
            }
            if ok {
                self.dirty = false;
                return;
            }
            // A point refused the in-place update (a model without an
            // incremental path, like the random forest, or a numerical
            // rollback); fall through to the full fit — and count it, so
            // the silent O(full-refit) cost of "incremental" campaigns on
            // such models shows up in `n_refits` / campaign telemetry
            // instead of hiding.
            fallback = true;
        }
        // Include constant liars while a batch is in flight.
        let (xs, ys): (Vec<Vec<f64>>, Vec<f64>) = if self.liars.is_empty() {
            (self.xs.clone(), self.ys.clone())
        } else {
            let lie = autotune_linalg::stats::mean(&self.ys);
            let mut xs = self.xs.clone();
            let mut ys = self.ys.clone();
            for l in &self.liars {
                xs.push(l.clone());
                ys.push(lie);
            }
            (xs, ys)
        };
        if self.model.fit(&xs, &ys).is_err() {
            // A degenerate fit (e.g. all-identical points) falls back to
            // whatever the previous model state was; suggestions degrade to
            // prior-driven sampling rather than crashing the tuner.
            self.model_n = 0;
            self.model_liars = false;
        } else {
            self.model_n = self.xs.len();
            self.model_liars = !self.liars.is_empty();
            if fallback {
                self.n_refits += 1;
            }
        }
        self.dirty = false;
    }

    /// Maybe refit GP hyperparameters on the refit cadence.
    fn maybe_refit_hypers(&mut self, rng: &mut dyn RngCore) {
        if self.config.refit_every == 0
            || self.config.surrogate != SurrogateChoice::GaussianProcess
            || self.observations_since_refit < self.config.refit_every
            || self.n_finite < self.config.n_init
        {
            return;
        }
        self.observations_since_refit = 0;
        self.ensure_fitted();
        // Downcast-free: rebuild a GP, fit hypers on the raw data.
        let d = self.space.onehot_dim().max(1);
        let mut gp = GaussianProcess::new(Box::new(Matern52::ard(vec![0.5; d], 1.0)), 1e-6);
        if gp.fit(&self.xs, &self.ys).is_ok() {
            let mut r = rand::rngs::StdRng::from_seed({
                let mut seed = [0u8; 32];
                rng.fill_bytes(&mut seed);
                seed
            });
            if gp.fit_hyperparameters(&mut r).is_ok() {
                self.model = Box::new(gp);
                self.dirty = false;
                self.n_refits += 1;
                // The fresh model holds exactly the real data, liar-free.
                self.model_n = self.xs.len();
                self.model_liars = false;
            }
        }
    }

    /// Proposes the next point by maximizing the acquisition function over
    /// random candidates plus local refinement.
    ///
    /// Candidate configurations are all drawn from `rng` *before* any
    /// scoring, so deterministic acquisitions (EI/PI/LCB) can be scored on
    /// parallel threads as pure functions of the frozen model, in blocks
    /// of [`CANDIDATE_BLOCK`] through [`Surrogate::predict_many`]; the
    /// winner is picked by an index-ordered strictly-greater argmax over
    /// the scores in candidate order, making the result independent of
    /// thread count and interleaving (and bitwise equal to the historical
    /// sequential loop). Thompson sampling's score is itself a posterior
    /// draw, so it keeps the sequential sample-then-score interleaving.
    fn propose(&mut self, rng: &mut dyn RngCore) -> Config {
        self.ensure_fitted();
        // No incumbent means nothing to "improve on": every trial so far
        // crashed (NaN). Defaulting the incumbent to 0.0 silently biases
        // EI/PI, so switch to a confidence bound that needs no incumbent.
        let incumbent = self.tracker.best().map(|b| b.value);
        let acquisition = match incumbent {
            Some(_) => self.config.acquisition,
            None => AcquisitionFunction::LowerConfidenceBound { beta: 1.0 },
        };
        let best_val = incumbent.unwrap_or(0.0);
        // The trust-region surrogate only models the neighborhood of the
        // incumbent; a purely global candidate pool mostly lands where its
        // local GP has reverted to the prior, wasting the acquisition
        // budget. Mirror TuRBO's in-region candidate generation by drawing
        // every other candidate as a neighbor of the incumbent config.
        let local_anchor = match self.config.surrogate {
            SurrogateChoice::TrustRegion => self.tracker.best().map(|b| b.config.clone()),
            _ => None,
        };
        let mut rng = rng;
        let (mut cfg, mut x, mut score) = if acquisition.consumes_rng() {
            // Sequential sample-then-score keeps the draw interleaving.
            let mut best_cfg: Option<(Config, Vec<f64>, f64)> = None;
            // Clamp so a zero candidate budget still yields one draw.
            for i in 0..self.config.n_candidates.max(1) {
                let cand = match &local_anchor {
                    Some(anchor) if i % 2 == 1 => self.space.neighbor(anchor, 0.2, &mut rng),
                    _ => self.space.sample(&mut rng),
                };
                let cx = self.encode(&cand);
                let s = acquisition.score(&self.model.predict(&cx), best_val, &mut rng);
                if best_cfg.as_ref().is_none_or(|(_, _, b)| s > *b) {
                    best_cfg = Some((cand, cx, s));
                }
            }
            best_cfg.expect("n_candidates >= 1 guarantees a candidate") // lint: allow(D5) loop above clamps to at least one draw
        } else {
            // Clamped like the sequential path: a zero budget still draws one.
            let n_candidates = self.config.n_candidates.max(1);
            let mut cands: Vec<Config> = Vec::with_capacity(n_candidates);
            let mut xs: Vec<Vec<f64>> = Vec::with_capacity(n_candidates);
            for i in 0..n_candidates {
                let cand = match &local_anchor {
                    Some(anchor) if i % 2 == 1 => self.space.neighbor(anchor, 0.2, &mut rng),
                    _ => self.space.sample(&mut rng),
                };
                xs.push(self.encode(&cand));
                cands.push(cand);
            }
            let model = self.model.as_ref();
            let blocks: Vec<&[Vec<f64>]> = xs.chunks(CANDIDATE_BLOCK).collect();
            let scores: Vec<f64> = autotune_linalg::par_map(&blocks, MIN_PAR_BLOCKS, |_, block| {
                model
                    .predict_many(block)
                    .iter()
                    .map(|p| acquisition.score_pure(p, best_val))
                    .collect::<Vec<f64>>()
            })
            .concat();
            let mut best_i = 0;
            for (i, s) in scores.iter().enumerate() {
                if *s > scores[best_i] {
                    best_i = i;
                }
            }
            (
                cands.swap_remove(best_i),
                xs.swap_remove(best_i),
                scores[best_i],
            )
        };
        // Local refinement: perturb the winner, keep improvements.
        for step in 0..self.config.n_local_steps {
            let scale = 0.1 * (1.0 - step as f64 / self.config.n_local_steps.max(1) as f64);
            let neighbor = self.space.neighbor(&cfg, scale.max(0.01), &mut rng);
            let nx = self.encode(&neighbor);
            let nscore = {
                let pred = self.model.predict(&nx);
                acquisition.score(&pred, best_val, &mut rng)
            };
            if nscore > score {
                cfg = neighbor;
                x = nx;
                score = nscore;
            }
        }
        let _ = (x, score);
        cfg
    }
}

impl Optimizer for BayesianOptimizer {
    fn suggest(&mut self, rng: &mut dyn RngCore) -> Config {
        let mut r = rng;
        if self.n_finite < self.config.n_init {
            return self.space.sample(&mut r);
        }
        self.maybe_refit_hypers(r);
        self.propose(r)
    }

    fn observe(&mut self, config: &Config, value: f64) {
        self.tracker.observe(config, value);
        let x = self.encode(config);
        // Resolve any constant liar pinned at this point.
        if let Some(pos) = self
            .liars
            .iter()
            .position(|l| autotune_linalg::squared_distance(l, &x) < 1e-18)
        {
            self.liars.swap_remove(pos);
        }
        // Crashed trials (NaN) are recorded at a pessimistic value so the
        // model learns to avoid the region (slide 67: "bad samples: make it
        // up — N * worst_score_measured").
        if value.is_finite() {
            self.n_finite += 1;
        }
        let recorded = if value.is_nan() {
            let worst = self.ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            if worst.is_finite() {
                worst + (worst.abs() + 1.0)
            } else {
                1e9
            }
        } else {
            value
        };
        // Eager O(n²) absorb: when the model already holds exactly the
        // real data, extend it in place now so the next suggestion pays no
        // refit at all. (The GP's rank-1 extension reproduces the full
        // factorization bitwise, so this does not perturb trajectories.)
        let absorbed = self.can_extend_model()
            && self.model_n == self.xs.len()
            && self.model.observe(&x, recorded).is_ok();
        self.xs.push(x);
        self.ys.push(recorded);
        self.history.push(Observation {
            config: config.clone(),
            value: recorded,
        });
        self.observations_since_refit += 1;
        if absorbed {
            self.model_n += 1;
            self.n_model_updates += 1;
            // Any prior dirtiness came from liar marks that are now fully
            // resolved; the model again matches the data exactly.
            self.dirty = false;
        } else {
            self.dirty = true;
        }
    }

    fn best(&self) -> Option<&Observation> {
        self.tracker.best()
    }

    fn space(&self) -> &Space {
        &self.space
    }

    fn name(&self) -> &str {
        match self.config.surrogate {
            SurrogateChoice::GaussianProcess => "bo_gp",
            SurrogateChoice::RandomForest => "smac",
            SurrogateChoice::SparseGaussianProcess => "bo_sparse_gp",
            SurrogateChoice::TrustRegion => "bo_turbo",
        }
    }

    /// Constant-liar pending mark (slide 57): pin a pessimistic pseudo-
    /// observation at the proposed point so proposals made while this one
    /// is in flight spread out instead of piling onto one optimum. The
    /// liar stays pinned until the real observation arrives. During the
    /// random-init phase there is no model to mislead, so nothing is
    /// pinned.
    fn mark_pending(&mut self, config: &Config) {
        if self.n_finite >= self.config.n_init {
            let x = self.encode(config);
            self.liars.push(x);
            self.dirty = true;
        }
    }

    fn unmark_pending(&mut self, config: &Config) {
        let x = self.encode(config);
        if let Some(pos) = self
            .liars
            .iter()
            .position(|l| autotune_linalg::squared_distance(l, &x) < 1e-18)
        {
            self.liars.swap_remove(pos);
            self.dirty = true;
        }
    }

    fn n_observed(&self) -> usize {
        self.tracker.n()
    }

    fn n_refits(&self) -> usize {
        self.n_refits
    }

    fn n_model_updates(&self) -> usize {
        self.n_model_updates
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{run_loop, sphere, sphere_space};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn gp_bo_beats_budget_on_sphere() {
        let mut opt = BayesianOptimizer::gp(sphere_space());
        let best = run_loop(&mut opt, sphere, 40, 11);
        assert!(best < 0.05, "GP-BO best {best} after 40 trials");
    }

    #[test]
    fn smac_solves_sphere() {
        let mut opt = BayesianOptimizer::smac(sphere_space());
        let best = run_loop(&mut opt, sphere, 60, 12);
        assert!(best < 0.15, "SMAC best {best} after 60 trials");
    }

    #[test]
    fn sparse_gp_bo_solves_sphere() {
        let mut opt = BayesianOptimizer::sparse_gp(sphere_space());
        assert_eq!(opt.name(), "bo_sparse_gp");
        let best = run_loop(&mut opt, sphere, 50, 14);
        assert!(best < 0.1, "sparse-GP BO best {best} after 50 trials");
    }

    #[test]
    fn turbo_bo_solves_sphere() {
        let mut opt = BayesianOptimizer::turbo(sphere_space());
        assert_eq!(opt.name(), "bo_turbo");
        let best = run_loop(&mut opt, sphere, 60, 15);
        assert!(best < 0.1, "TuRBO BO best {best} after 60 trials");
    }

    #[test]
    fn forest_fallback_refits_are_counted() {
        // Satellite regression: RandomForest has no incremental `observe`,
        // so every post-init model sync is silently a full refit. That
        // cost must surface in `n_refits` instead of hiding.
        let mut opt = BayesianOptimizer::smac(sphere_space());
        let mut rng = StdRng::seed_from_u64(23);
        let n_init = opt.config.n_init;
        for _ in 0..n_init + 10 {
            let c = opt.suggest(&mut rng);
            let v = sphere(&c);
            opt.observe(&c, v);
        }
        // Each model-phase suggestion past the first full fit re-syncs the
        // forest through the refused-incremental fallback path.
        assert!(
            opt.n_refits() >= 8,
            "forest fallback refits must be counted: {}",
            opt.n_refits()
        );
        assert_eq!(
            opt.n_model_updates(),
            0,
            "the forest has no incremental path to credit"
        );
    }

    #[test]
    fn gp_incremental_path_counts_no_fallback_refits() {
        // The dense GP absorbs everything in place: its campaigns must not
        // be charged any fallback refits (hyper-refit cycles are disabled
        // here to isolate the fallback counter).
        let mut opt = BayesianOptimizer::new(
            sphere_space(),
            BoConfig {
                refit_every: 0,
                ..BoConfig::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(29);
        for _ in 0..30 {
            let c = opt.suggest(&mut rng);
            let v = sphere(&c);
            opt.observe(&c, v);
        }
        assert_eq!(opt.n_refits(), 0, "GP incremental path never falls back");
        assert!(opt.n_model_updates() > 10);
    }

    #[test]
    fn first_suggestions_are_random_init() {
        let mut opt = BayesianOptimizer::gp(sphere_space());
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..opt.config.n_init {
            let c = opt.suggest(&mut rng);
            opt.observe(&c, 1.0);
        }
        assert_eq!(opt.n_observed(), opt.config.n_init);
    }

    #[test]
    fn batch_suggestions_are_diverse() {
        let space = sphere_space();
        let mut opt = BayesianOptimizer::gp(space.clone());
        let mut rng = StdRng::seed_from_u64(4);
        // Seed the model.
        for _ in 0..10 {
            let c = opt.suggest(&mut rng);
            let v = sphere(&c);
            opt.observe(&c, v);
        }
        let batch = opt.suggest_batch(4, &mut rng);
        assert_eq!(batch.len(), 4);
        // Pairwise distances in encoded space must be nonzero: the constant
        // liar must prevent duplicate proposals.
        for i in 0..batch.len() {
            for j in (i + 1)..batch.len() {
                let a = space.encode_unit(&batch[i]).unwrap();
                let b = space.encode_unit(&batch[j]).unwrap();
                let d = autotune_linalg::squared_distance(&a, &b);
                assert!(d > 1e-12, "batch points {i} and {j} identical");
            }
        }
        // Observing the real values releases the liars.
        for c in &batch {
            let v = sphere(c);
            opt.observe(c, v);
        }
        assert!(opt.liars.is_empty());
    }

    #[test]
    fn nan_recorded_as_pessimistic() {
        let space = sphere_space();
        let mut opt = BayesianOptimizer::gp(space.clone());
        opt.observe(&space.default_config(), 2.0);
        opt.observe(&space.default_config().with("x", 1.0), f64::NAN);
        // The NaN trial must not be best, and must be stored worse than 2.0.
        assert_eq!(opt.best().unwrap().value, 2.0);
        assert!(opt.ys[1] > 2.0);
    }

    #[test]
    fn warm_start_counts_as_observations() {
        let space = sphere_space();
        let mut donor = BayesianOptimizer::gp(space.clone());
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..12 {
            let c = donor.suggest(&mut rng);
            let v = sphere(&c);
            donor.observe(&c, v);
        }
        let mut recipient = BayesianOptimizer::gp(space);
        recipient.warm_start(donor.history());
        assert_eq!(recipient.n_observed(), 12);
        // Next suggestion is model-driven (past n_init) and valid.
        let c = recipient.suggest(&mut rng);
        assert!(recipient.space().validate_config(&c).is_ok());
    }

    #[test]
    fn incremental_and_full_fit_produce_identical_suggestions() {
        // The rank-1 GP extension reproduces the from-scratch factorization
        // bitwise, so the entire suggestion trajectory must match the
        // fit-per-suggest seed path while doing O(n²) updates instead.
        let run = |incremental: bool| {
            let mut opt = BayesianOptimizer::gp(sphere_space());
            opt.incremental = incremental;
            let mut rng = StdRng::seed_from_u64(77);
            let mut trace = Vec::new();
            for _ in 0..25 {
                let c = opt.suggest(&mut rng);
                let v = sphere(&c);
                opt.observe(&c, v);
                trace.push((format!("{c:?}"), v));
            }
            (trace, opt.n_model_updates())
        };
        let (inc_trace, inc_updates) = run(true);
        let (seed_trace, seed_updates) = run(false);
        assert_eq!(inc_trace, seed_trace, "trajectories must be bitwise equal");
        assert!(inc_updates > 10, "incremental path unused: {inc_updates}");
        assert_eq!(seed_updates, 0, "incremental=false must never absorb");
    }

    #[test]
    fn first_model_suggestion_without_any_incumbent() {
        // Satellite regression: with every observation NaN (all trials
        // crashed) there is no incumbent; the old code scored EI against a
        // fabricated best of 0.0. The proposal must still be valid and
        // deterministic, driven by a confidence bound instead.
        let space = sphere_space();
        let mut opt = BayesianOptimizer::new(
            space.clone(),
            BoConfig {
                n_init: 2,
                ..BoConfig::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..3 {
            let c = opt.suggest(&mut rng);
            opt.observe(&c, f64::NAN);
        }
        assert!(opt.best().is_none(), "NaN-only history has no incumbent");
        // n_finite is still 0 < n_init, so force the model path directly.
        opt.n_finite = opt.config.n_init;
        opt.ensure_fitted();
        let a = opt.propose(&mut StdRng::seed_from_u64(9));
        let b = opt.propose(&mut StdRng::seed_from_u64(9));
        assert!(space.validate_config(&a).is_ok());
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "proposal must be deterministic"
        );
    }

    #[test]
    fn incumbent_present_keeps_configured_acquisition_stream() {
        // The incumbent fix must not disturb seeded campaigns that do have
        // finite observations: the first post-init suggestion is unchanged
        // between two identical runs (and exercises the EI path).
        let run = || {
            let mut opt = BayesianOptimizer::gp(sphere_space());
            let mut rng = StdRng::seed_from_u64(13);
            for _ in 0..opt.config.n_init {
                let c = opt.suggest(&mut rng);
                let v = sphere(&c);
                opt.observe(&c, v);
            }
            format!("{:?}", opt.suggest(&mut rng))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn a_zero_candidate_budget_still_suggests() {
        // EI scores in parallel blocks, Thompson sampling sequentially;
        // both clamp an empty candidate budget to one draw.
        for acquisition in [
            AcquisitionFunction::ExpectedImprovement,
            AcquisitionFunction::ThompsonSample,
        ] {
            let space = sphere_space();
            let mut opt = BayesianOptimizer::new(
                space.clone(),
                BoConfig {
                    acquisition,
                    n_candidates: 0,
                    ..BoConfig::default()
                },
            );
            let mut rng = StdRng::seed_from_u64(31);
            for _ in 0..opt.config.n_init + 3 {
                let c = opt.suggest(&mut rng);
                assert!(space.validate_config(&c).is_ok(), "{acquisition:?}");
                opt.observe(&c, sphere(&c));
            }
        }
    }

    #[test]
    fn thompson_sampling_still_suggests_valid_configs() {
        // TS consumes RNG inside scoring and must take the sequential
        // path; smoke-test that the campaign still runs end to end.
        let mut opt = BayesianOptimizer::new(
            sphere_space(),
            BoConfig {
                acquisition: AcquisitionFunction::ThompsonSample,
                ..BoConfig::default()
            },
        );
        let best = run_loop(&mut opt, sphere, 30, 17);
        assert!(best.is_finite());
    }

    #[test]
    fn handles_categorical_space() {
        use autotune_space::{Param, Space};
        let space = Space::builder()
            .add(Param::float("x", 0.0, 1.0))
            .add(Param::categorical("mode", &["slow", "fast", "turbo"]))
            .build()
            .unwrap();
        let objective = |c: &Config| {
            let x = c.get_f64("x").unwrap();
            let penalty = match c.get_str("mode").unwrap() {
                "turbo" => 0.0,
                "fast" => 0.5,
                _ => 1.0,
            };
            (x - 0.3).powi(2) + penalty
        };
        for mut opt in [
            BayesianOptimizer::gp(space.clone()),
            BayesianOptimizer::smac(space.clone()),
        ] {
            let best = run_loop(&mut opt, objective, 50, 21);
            assert!(best < 0.3, "{} best {best}", opt.name());
        }
    }
}
