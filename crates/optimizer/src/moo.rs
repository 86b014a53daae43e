//! Multi-objective optimization (tutorial slide 58).
//!
//! Minimizes a vector of objectives (e.g. latency *and* cost). Usually no
//! single configuration optimizes all of them simultaneously; the goal is
//! the **Pareto frontier** — the set of non-dominated trade-offs. Two
//! pieces live here:
//!
//! * [`ParetoFront`] — bookkeeping of the non-dominated set plus 2-D
//!   hypervolume for quality measurement;
//! * [`ParEgo`] — Knowles' ParEGO: scalarize the objectives with a random
//!   augmented-Tchebycheff weight each iteration and run one step of
//!   single-objective Bayesian optimization on the scalarized history.

use crate::{BayesianOptimizer, BoConfig, Observation, Optimizer};
use autotune_space::{Config, Space};
use rand::{Rng, RngCore};

/// One evaluated configuration with its objective vector.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiObservation {
    /// The evaluated configuration.
    pub config: Config,
    /// Objective values (minimization, fixed order).
    pub objectives: Vec<f64>,
}

/// Returns true when `a` dominates `b`: no worse everywhere, strictly
/// better somewhere (minimization).
pub fn dominates(a: &[f64], b: &[f64]) -> bool {
    debug_assert_eq!(a.len(), b.len(), "objective vectors must align");
    let mut strictly = false;
    for (&x, &y) in a.iter().zip(b) {
        if x > y {
            return false;
        }
        if x < y {
            strictly = true;
        }
    }
    strictly
}

/// A non-dominated archive of observations.
#[derive(Debug, Clone, Default)]
pub struct ParetoFront {
    members: Vec<MultiObservation>,
}

impl ParetoFront {
    /// Empty front.
    pub fn new() -> Self {
        ParetoFront::default()
    }

    /// Offers an observation; returns `true` if it joined the front
    /// (evicting anything it dominates).
    pub fn insert(&mut self, obs: MultiObservation) -> bool {
        if obs.objectives.iter().any(|v| v.is_nan()) {
            return false;
        }
        if self
            .members
            .iter()
            .any(|m| dominates(&m.objectives, &obs.objectives) || m.objectives == obs.objectives)
        {
            return false;
        }
        self.members
            .retain(|m| !dominates(&obs.objectives, &m.objectives));
        self.members.push(obs);
        true
    }

    /// Current non-dominated members.
    pub fn members(&self) -> &[MultiObservation] {
        &self.members
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Exact hypervolume dominated by the front relative to a reference
    /// point, for **two objectives** (the tutorial's latency/cost case).
    ///
    /// # Panics
    /// Panics if the front holds non-2-D vectors.
    pub fn hypervolume_2d(&self, reference: (f64, f64)) -> f64 {
        if self.members.is_empty() {
            return 0.0;
        }
        let mut pts: Vec<(f64, f64)> = self
            .members
            .iter()
            .map(|m| {
                assert_eq!(
                    m.objectives.len(),
                    2,
                    "hypervolume_2d requires 2 objectives"
                );
                (m.objectives[0], m.objectives[1])
            })
            .filter(|&(a, b)| a < reference.0 && b < reference.1)
            .collect();
        pts.sort_by(|a, b| a.0.total_cmp(&b.0));
        // Sweep left→right; each point contributes a rectangle down to the
        // previous point's second objective.
        let mut hv = 0.0;
        let mut prev_y = reference.1;
        for (x, y) in pts {
            hv += (reference.0 - x) * (prev_y - y);
            prev_y = y;
        }
        hv
    }
}

/// ParEGO: random-scalarization multi-objective Bayesian optimization.
pub struct ParEgo {
    space: Space,
    n_objectives: usize,
    history: Vec<MultiObservation>,
    front: ParetoFront,
    /// ρ in the augmented Tchebycheff function.
    rho: f64,
    n_init: usize,
    bo_config: BoConfig,
}

impl std::fmt::Debug for ParEgo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ParEgo")
            .field("n_objectives", &self.n_objectives)
            .field("n_observed", &self.history.len())
            .field("front_size", &self.front.len())
            .finish()
    }
}

impl ParEgo {
    /// Creates a ParEGO optimizer for `n_objectives` objectives.
    pub fn new(space: Space, n_objectives: usize) -> Self {
        assert!(
            n_objectives >= 2,
            "use single-objective BO for one objective"
        );
        ParEgo {
            space,
            n_objectives,
            history: Vec::new(),
            front: ParetoFront::new(),
            rho: 0.05,
            n_init: 8,
            bo_config: BoConfig {
                n_init: 0,
                refit_every: 0,
                ..Default::default()
            },
        }
    }

    /// The current Pareto front.
    pub fn front(&self) -> &ParetoFront {
        &self.front
    }

    /// All multi-objective observations.
    pub fn history(&self) -> &[MultiObservation] {
        &self.history
    }

    /// Proposes the next configuration.
    pub fn suggest(&mut self, rng: &mut impl Rng) -> Config {
        if self.history.len() < self.n_init {
            return self.space.sample(rng);
        }
        // Random weight vector on the simplex.
        let mut theta: Vec<f64> = (0..self.n_objectives)
            .map(|_| -(rng.gen::<f64>().max(1e-12)).ln())
            .collect();
        let sum: f64 = theta.iter().sum();
        for t in theta.iter_mut() {
            *t /= sum;
        }
        // Normalize each objective over history to [0,1].
        let mut lo = vec![f64::INFINITY; self.n_objectives];
        let mut hi = vec![f64::NEG_INFINITY; self.n_objectives];
        for obs in &self.history {
            for (k, &v) in obs.objectives.iter().enumerate() {
                lo[k] = lo[k].min(v);
                hi[k] = hi[k].max(v);
            }
        }
        let scalarize = |objs: &[f64]| -> f64 {
            let norm: Vec<f64> = objs
                .iter()
                .enumerate()
                .map(|(k, &v)| {
                    let range = (hi[k] - lo[k]).max(1e-12);
                    (v - lo[k]) / range
                })
                .collect();
            let weighted: Vec<f64> = norm.iter().zip(&theta).map(|(&n, &t)| t * n).collect();
            let max_term = weighted.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let sum_term: f64 = weighted.iter().sum();
            max_term + self.rho * sum_term
        };
        // One BO step on the scalarized history.
        let mut bo = BayesianOptimizer::new(self.space.clone(), self.bo_config.clone());
        let scalar_history: Vec<Observation> = self
            .history
            .iter()
            .map(|obs| Observation {
                config: obs.config.clone(),
                value: scalarize(&obs.objectives),
            })
            .collect();
        bo.warm_start(&scalar_history);
        let mut rng_dyn: &mut dyn RngCore = rng;
        bo.suggest(&mut rng_dyn)
    }

    /// Records an observed objective vector.
    pub fn observe(&mut self, config: &Config, objectives: &[f64]) {
        assert_eq!(
            objectives.len(),
            self.n_objectives,
            "objective vector has wrong arity"
        );
        let obs = MultiObservation {
            config: config.clone(),
            objectives: objectives.to_vec(),
        };
        self.front.insert(obs.clone());
        self.history.push(obs);
    }

    /// Number of observations so far.
    pub fn n_observed(&self) -> usize {
        self.history.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use autotune_space::Param;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dominance_is_strict_partial_order() {
        assert!(dominates(&[1.0, 1.0], &[2.0, 2.0]));
        assert!(dominates(&[1.0, 2.0], &[2.0, 2.0]));
        assert!(!dominates(&[2.0, 2.0], &[1.0, 1.0]));
        assert!(!dominates(&[1.0, 3.0], &[2.0, 2.0])); // incomparable
        assert!(!dominates(&[1.0, 1.0], &[1.0, 1.0])); // equal
    }

    fn mobs(objs: &[f64]) -> MultiObservation {
        MultiObservation {
            config: Config::new(),
            objectives: objs.to_vec(),
        }
    }

    #[test]
    fn front_keeps_only_nondominated() {
        let mut f = ParetoFront::new();
        assert!(f.insert(mobs(&[2.0, 2.0])));
        assert!(f.insert(mobs(&[1.0, 3.0]))); // incomparable: joins
        assert!(!f.insert(mobs(&[3.0, 3.0]))); // dominated: rejected
        assert!(f.insert(mobs(&[1.0, 1.0]))); // dominates both: evicts
        assert_eq!(f.len(), 1);
        assert_eq!(f.members()[0].objectives, vec![1.0, 1.0]);
    }

    #[test]
    fn front_rejects_duplicates_and_nan() {
        let mut f = ParetoFront::new();
        assert!(f.insert(mobs(&[1.0, 2.0])));
        assert!(!f.insert(mobs(&[1.0, 2.0])));
        assert!(!f.insert(mobs(&[f64::NAN, 0.0])));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn hypervolume_known_values() {
        let mut f = ParetoFront::new();
        f.insert(mobs(&[1.0, 2.0]));
        f.insert(mobs(&[2.0, 1.0]));
        // Reference (3,3): rect1 = (3-1)*(3-2)=2, rect2 = (3-2)*(2-1)=1.
        assert!((f.hypervolume_2d((3.0, 3.0)) - 3.0).abs() < 1e-12);
        // Points outside the reference contribute nothing.
        f.insert(mobs(&[0.5, 4.0]));
        assert!((f.hypervolume_2d((3.0, 3.0)) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn hypervolume_monotone_in_members() {
        let mut f = ParetoFront::new();
        f.insert(mobs(&[2.0, 2.0]));
        let hv1 = f.hypervolume_2d((4.0, 4.0));
        f.insert(mobs(&[1.0, 3.0]));
        let hv2 = f.hypervolume_2d((4.0, 4.0));
        assert!(hv2 > hv1);
    }

    #[test]
    fn parego_recovers_tradeoff_curve() {
        // Two objectives: f1 = x², f2 = (x-1)²; Pareto set is x ∈ [0, 1].
        let space = Space::builder()
            .add(Param::float("x", -2.0, 3.0))
            .build()
            .unwrap();
        let mut pe = ParEgo::new(space, 2);
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..50 {
            let cfg = pe.suggest(&mut rng);
            let x = cfg.get_f64("x").unwrap();
            pe.observe(&cfg, &[x * x, (x - 1.0) * (x - 1.0)]);
        }
        // Front members must lie in (or very near) the true Pareto set.
        assert!(
            pe.front().len() >= 3,
            "front too small: {}",
            pe.front().len()
        );
        for m in pe.front().members() {
            let x = m.config.get_f64("x").unwrap();
            assert!(
                (-0.2..=1.2).contains(&x),
                "front member x={x} far outside Pareto set"
            );
        }
        // Hypervolume should cover a solid share of the ideal front's.
        let hv = pe.front().hypervolume_2d((4.0, 4.0));
        assert!(hv > 12.0, "hypervolume {hv} too small");
    }

    #[test]
    #[should_panic(expected = "single-objective")]
    fn parego_rejects_one_objective() {
        let space = Space::builder()
            .add(Param::float("x", 0.0, 1.0))
            .build()
            .unwrap();
        let _ = ParEgo::new(space, 1);
    }
}
