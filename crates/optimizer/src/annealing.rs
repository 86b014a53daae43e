//! Simulated annealing (tutorial slide 7, "Search Based").
//!
//! Random-walk local search with a cooling schedule: worse moves are
//! accepted with probability `exp(-Δ/T)`, so early iterations explore and
//! late iterations exploit. The neighbourhood kernel is
//! [`autotune_space::Space::neighbor`], which respects conditionals and
//! constraints.

use crate::{BestTracker, Observation, Optimizer};
use autotune_space::{Config, Space};
use rand::RngCore;

/// Neighbourhood scale in unit-cube space.
const STEP_SCALE: f64 = 0.15;

/// Simulated-annealing optimizer.
#[derive(Debug)]
pub struct SimulatedAnnealing {
    space: Space,
    /// Current accepted state and its value.
    current: Option<(Config, f64)>,
    /// The configuration most recently suggested (whose observation will
    /// drive the accept/reject decision).
    pending: Option<Config>,
    /// Initial temperature.
    t0: f64,
    /// Multiplicative cooling factor per observation.
    cooling: f64,
    /// Current temperature.
    temperature: f64,
    /// Internal state for accept/reject draws, so `observe` stays
    /// deterministic without threading an RNG through the trait.
    accept_state: u64,
    tracker: BestTracker,
}

impl SimulatedAnnealing {
    /// Creates an annealer. `t0` should be on the order of typical
    /// objective differences; `cooling` in `(0, 1)` (e.g. 0.95).
    pub fn new(space: Space, t0: f64, cooling: f64) -> Self {
        assert!(t0 > 0.0, "initial temperature must be positive");
        assert!((0.0..1.0).contains(&cooling), "cooling must be in (0,1)");
        SimulatedAnnealing {
            space,
            current: None,
            pending: None,
            t0,
            cooling,
            temperature: t0,
            accept_state: 0x9E37_79B9_7F4A_7C15,
            tracker: BestTracker::default(),
        }
    }
}

impl Optimizer for SimulatedAnnealing {
    fn suggest(&mut self, mut rng: &mut dyn RngCore) -> Config {
        let cfg = match &self.current {
            None => self.space.sample(&mut rng),
            Some((cur, _)) => self.space.neighbor(cur, STEP_SCALE, &mut rng),
        };
        self.pending = Some(cfg.clone());
        cfg
    }

    fn observe(&mut self, config: &Config, value: f64) {
        self.tracker.observe(config, value);
        // Accept/reject only applies to the move we proposed; foreign
        // observations (e.g. warm-start imports) just update the tracker
        // and, if better, the current state.
        let is_pending = self.pending.as_ref() == Some(config);
        if is_pending {
            self.pending = None;
        }
        let accept = match &self.current {
            None => true,
            Some((_, cur_v)) => {
                if value.is_nan() {
                    false
                } else if value <= *cur_v {
                    true
                } else if is_pending {
                    let delta = value - cur_v;
                    let p = (-delta / self.temperature.max(1e-12)).exp();
                    // splitmix64 step for a deterministic uniform draw.
                    self.accept_state = self.accept_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    let mut z = self.accept_state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    z ^= z >> 31;
                    let u = (z >> 11) as f64 / (1u64 << 53) as f64;
                    u < p
                } else {
                    false
                }
            }
        };
        if accept && !value.is_nan() {
            self.current = Some((config.clone(), value));
        }
        self.temperature = (self.temperature * self.cooling).max(self.t0 * 1e-6);
    }

    fn best(&self) -> Option<&Observation> {
        self.tracker.best()
    }

    fn space(&self) -> &Space {
        &self.space
    }

    fn name(&self) -> &str {
        "simulated_annealing"
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
    fn converges_on_sphere() {
        let mut opt = SimulatedAnnealing::new(sphere_space(), 1.0, 0.93);
        let best = run_loop(&mut opt, sphere, 150, 5);
        assert!(best < 0.1, "annealing best {best} after 150 trials");
    }

    #[test]
    fn temperature_decays() {
        let space = sphere_space();
        let mut opt = SimulatedAnnealing::new(space.clone(), 2.0, 0.9);
        let t_start = opt.temperature;
        let mut rng = rand::rngs::mock::StepRng::new(3, 0x9E3779B97F4A7C15);
        for _ in 0..10 {
            let c = opt.suggest(&mut rng);
            opt.observe(&c, 1.0);
        }
        assert!(opt.temperature < t_start * 0.5);
    }

    #[test]
    fn always_accepts_improvements() {
        let space = sphere_space();
        let mut opt = SimulatedAnnealing::new(space.clone(), 1e-9, 0.5); // ~zero temp
        let c1 = space.default_config();
        let c2 = space.default_config().with("x", 1.0);
        opt.observe(&c1, 10.0);
        opt.observe(&c2, 1.0);
        // current must be the better config: next suggestion is its neighbor
        let mut rng = rand::rngs::mock::StepRng::new(9, 0x9E3779B97F4A7C15);
        let n = opt.suggest(&mut rng);
        // Neighbor of c2 keeps y near default 0.0 more often than c1's; just
        // check the internal current state directly via best().
        assert_eq!(opt.best().unwrap().value, 1.0);
        assert!(space.validate_config(&n).is_ok());
    }

    #[test]
    fn nan_never_accepted() {
        let space = sphere_space();
        let mut opt = SimulatedAnnealing::new(space.clone(), 1.0, 0.9);
        let c = space.default_config();
        opt.observe(&c, f64::NAN);
        assert!(opt.best().is_none());
        assert!(opt.current.is_none());
    }

    #[test]
    #[should_panic(expected = "cooling")]
    fn invalid_cooling_rejected() {
        let _ = SimulatedAnnealing::new(sphere_space(), 1.0, 1.5);
    }
}
