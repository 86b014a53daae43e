//! Grid search (tutorial slide 29): evaluate configurations at even
//! intervals over each axis, try them all, pick the best.
//!
//! "Not so naïve" — with a fixed budget and a low-dimensional space it is a
//! perfectly reasonable strategy, and its complete coverage makes results
//! easy to explain to operators.

use crate::{BestTracker, Observation, Optimizer};
use autotune_space::{Config, Space};
use rand::RngCore;

/// Exhaustive sweep over an axis-aligned grid.
///
/// Once the grid is exhausted, further `suggest` calls fall back to random
/// sampling so a fixed-budget experiment loop never stalls.
#[derive(Debug)]
pub struct GridSearch {
    space: Space,
    queue: std::collections::VecDeque<Config>,
    tracker: BestTracker,
}

impl GridSearch {
    /// Creates a grid search with `per_dim` points per parameter axis
    /// (categoricals contribute their exact cardinality).
    pub fn new(space: Space, per_dim: usize) -> Self {
        GridSearch {
            queue: space.grid(per_dim).into(),
            space,
            tracker: BestTracker::default(),
        }
    }

    /// Creates a grid sized to approximately `budget` total points by
    /// choosing the largest `per_dim` whose full grid fits within budget.
    pub fn with_budget(space: Space, budget: usize) -> Self {
        let d = space.len().max(1) as f64;
        // per_dim^d <= budget  =>  per_dim = floor(budget^(1/d))
        let per_dim = (budget.max(1) as f64).powf(1.0 / d).floor() as usize;
        GridSearch::new(space, per_dim.max(1))
    }

    /// Points remaining in the sweep.
    pub fn remaining(&self) -> usize {
        self.queue.len()
    }
}

impl Optimizer for GridSearch {
    fn suggest(&mut self, mut rng: &mut dyn RngCore) -> Config {
        self.queue
            .pop_front()
            .unwrap_or_else(|| self.space.sample(&mut rng))
    }

    fn observe(&mut self, config: &Config, value: f64) {
        self.tracker.observe(config, value);
    }

    fn best(&self) -> Option<&Observation> {
        self.tracker.best()
    }

    fn space(&self) -> &Space {
        &self.space
    }

    fn name(&self) -> &str {
        "grid"
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
    fn sweeps_every_grid_point_once() {
        let space = sphere_space();
        let mut opt = GridSearch::new(space, 5);
        assert_eq!(opt.remaining(), 25);
        let mut rng = rand::rngs::mock::StepRng::new(0, 1);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..25 {
            let c = opt.suggest(&mut rng);
            assert!(seen.insert(c.render()), "grid repeated a point");
        }
        assert_eq!(opt.remaining(), 0);
    }

    #[test]
    fn falls_back_to_random_after_exhaustion() {
        let space = sphere_space();
        let mut opt = GridSearch::new(space.clone(), 2);
        let mut rng = rand::rngs::mock::StepRng::new(7, 0x9E3779B97F4A7C15);
        for _ in 0..4 {
            opt.suggest(&mut rng);
        }
        // Past the grid: still produces valid configs.
        let c = opt.suggest(&mut rng);
        assert!(space.validate_config(&c).is_ok());
    }

    #[test]
    fn dense_grid_finds_sphere_optimum_region() {
        let mut opt = GridSearch::new(sphere_space(), 9);
        let best = run_loop(&mut opt, sphere, 81, 3);
        assert!(best < 0.1, "9x9 grid best {best} should land near optimum");
    }

    #[test]
    fn with_budget_caps_grid() {
        let opt = GridSearch::with_budget(sphere_space(), 30);
        assert!(
            opt.remaining() <= 30,
            "grid {} exceeds budget",
            opt.remaining()
        );
        assert!(opt.remaining() >= 25); // 5x5 fits
    }

    #[test]
    fn budget_smaller_than_axes_still_works() {
        let opt = GridSearch::with_budget(sphere_space(), 1);
        assert!(opt.remaining() >= 1);
    }
}
