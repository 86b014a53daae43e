//! Genetic algorithm (tutorial slides 81-84: HUNTER, RFHOC and friends use
//! GAs for online cloud-database tuning).
//!
//! Generational GA with tournament selection, uniform crossover in config
//! space, mutation via the space's neighbourhood kernel, and elitism.

use crate::{BestTracker, Observation, Optimizer};
use autotune_space::{Config, Space};
use rand::{Rng, RngCore};

/// Genetic-algorithm hyperparameters.
#[derive(Debug, Clone)]
pub struct GaConfig {
    /// Individuals per generation.
    pub population: usize,
    /// Per-individual mutation probability.
    pub mutation_rate: f64,
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig {
            population: 16,
            mutation_rate: 0.4,
        }
    }
}

/// The smallest population [`GeneticAlgorithm::new`] accepts.
const MIN_POPULATION: usize = 4;
/// Tournament size for parent selection.
const TOURNAMENT: usize = 3;
/// Probability of taking each gene from the first parent in crossover.
const CROSSOVER_BIAS: f64 = 0.5;
/// Mutation step scale in unit-cube units.
const MUTATION_SCALE: f64 = 0.15;
/// Top individuals copied unchanged into the next generation.
const ELITES: usize = 2;
const _: () = assert!(
    ELITES < MIN_POPULATION,
    "elites must leave room for offspring"
);

/// Generational genetic algorithm over a configuration space.
#[derive(Debug)]
pub struct GeneticAlgorithm {
    space: Space,
    config: GaConfig,
    /// Scored individuals of the last completed generation.
    scored: Vec<(Config, f64)>,
    /// Individuals of the current generation awaiting evaluation.
    pending: std::collections::VecDeque<Config>,
    /// Scores arriving for the current generation.
    incoming: Vec<(Config, f64)>,
    generation: usize,
    tracker: BestTracker,
}

impl GeneticAlgorithm {
    /// Creates a GA over `space`.
    pub fn new(space: Space, config: GaConfig) -> Self {
        assert!(
            config.population >= MIN_POPULATION,
            "population must be at least {MIN_POPULATION}"
        );
        GeneticAlgorithm {
            space,
            config,
            scored: Vec::new(),
            pending: std::collections::VecDeque::new(),
            incoming: Vec::new(),
            generation: 0,
            tracker: BestTracker::default(),
        }
    }

    /// Completed generations so far.
    pub fn generation(&self) -> usize {
        self.generation
    }

    /// Tournament selection from the scored population.
    fn select<'a>(&'a self, rng: &mut dyn RngCore) -> &'a Config {
        let mut best: Option<&(Config, f64)> = None;
        for _ in 0..TOURNAMENT {
            let c = &self.scored[rng.gen_range(0..self.scored.len())];
            if best.is_none_or(|b| c.1 < b.1) {
                best = Some(c);
            }
        }
        &best.expect("tournament >= 1").0 // lint: allow(D5) TOURNAMENT is a positive constant
    }

    /// Uniform crossover of two parents at the parameter level.
    fn crossover(&self, a: &Config, b: &Config, rng: &mut dyn RngCore) -> Config {
        let mut child = Config::new();
        for p in self.space.params() {
            let from_a = rng.gen::<f64>() < CROSSOVER_BIAS;
            let donor = if from_a { a } else { b };
            // Fall back to the other parent (then default) when the chosen
            // donor deactivated this conditional parameter.
            let v = donor
                .get(&p.name)
                .or_else(|| {
                    if from_a {
                        b.get(&p.name)
                    } else {
                        a.get(&p.name)
                    }
                })
                .unwrap_or(&p.default);
            child.set(p.name.clone(), v.clone());
        }
        // Strip genes that the combined parent choices deactivate.
        let x = self
            .space
            .encode_unit(&child)
            .expect("crossover child covers all params"); // lint: allow(D5) child covers every param of the space
        self.space.decode_unit(&x).expect("encoded child decodes") // lint: allow(D5) encoded child always decodes
    }

    /// Builds the next generation from the scored one.
    fn breed(&mut self, rng: &mut dyn RngCore) {
        let mut rng = rng;
        self.scored.sort_by(|a, b| a.1.total_cmp(&b.1));
        let mut next: Vec<Config> = self
            .scored
            .iter()
            .take(ELITES)
            .map(|(c, _)| c.clone())
            .collect();
        while next.len() < self.config.population {
            let a = self.select(&mut rng).clone();
            let b = self.select(&mut rng).clone();
            let mut child = self.crossover(&a, &b, &mut rng);
            if rng.gen::<f64>() < self.config.mutation_rate {
                child = self.space.neighbor(&child, MUTATION_SCALE, &mut rng);
            }
            next.push(child);
        }
        self.pending = next.into();
        self.generation += 1;
    }
}

impl Optimizer for GeneticAlgorithm {
    fn suggest(&mut self, rng: &mut dyn RngCore) -> Config {
        let mut rng = rng;
        if let Some(c) = self.pending.pop_front() {
            return c;
        }
        if self.incoming.len() >= self.config.population && !self.incoming.is_empty() {
            self.scored = std::mem::take(&mut self.incoming);
            self.breed(&mut rng);
            if let Some(c) = self.pending.pop_front() {
                return c;
            }
        }
        // First generation (or waiting on stragglers): random individuals.
        self.space.sample(&mut rng)
    }

    fn observe(&mut self, config: &Config, value: f64) {
        self.tracker.observe(config, value);
        let v = if value.is_nan() { f64::INFINITY } else { value };
        self.incoming.push((config.clone(), v));
    }

    fn best(&self) -> Option<&Observation> {
        self.tracker.best()
    }

    fn space(&self) -> &Space {
        &self.space
    }

    fn name(&self) -> &str {
        "genetic"
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
        let mut opt = GeneticAlgorithm::new(sphere_space(), GaConfig::default());
        let best = run_loop(&mut opt, sphere, 300, 31);
        assert!(best < 0.05, "GA best {best} after 300 trials");
    }

    #[test]
    fn generations_advance() {
        let mut opt = GeneticAlgorithm::new(sphere_space(), GaConfig::default());
        run_loop(&mut opt, sphere, 100, 37);
        assert!(
            opt.generation() >= 3,
            "only {} generations",
            opt.generation()
        );
    }

    #[test]
    fn elitism_preserves_best() {
        let cfg = GaConfig {
            mutation_rate: 1.0,
            ..Default::default()
        };
        let mut opt = GeneticAlgorithm::new(sphere_space(), cfg);
        let before_after: Vec<f64> = (0..2)
            .map(|phase| {
                run_loop(&mut opt, sphere, 100, 41 + phase);
                opt.best().unwrap().value
            })
            .collect();
        // Best never regresses across further evolution.
        assert!(before_after[1] <= before_after[0] + 1e-12);
    }

    #[test]
    fn crossover_children_valid_on_conditional_space() {
        use autotune_space::{Condition, Param, Space};
        let space = Space::builder()
            .add(Param::bool("jit"))
            .add(Param::float("jit_cost", 1.0, 100.0))
            .condition(Condition::equals("jit_cost", "jit", true))
            .build()
            .unwrap();
        let mut opt = GeneticAlgorithm::new(space.clone(), GaConfig::default());
        let objective = |c: &Config| {
            if c.get_bool("jit").unwrap() {
                c.get_f64("jit_cost").unwrap()
            } else {
                200.0
            }
        };
        let best = run_loop(&mut opt, objective, 200, 43);
        assert!(best < 20.0, "GA best {best} on conditional space");
        // All suggested configs were valid (run_loop would have panicked in
        // objective otherwise because jit_cost may be missing).
    }

    #[test]
    fn nan_treated_as_worst() {
        let space = sphere_space();
        let mut opt = GeneticAlgorithm::new(space.clone(), GaConfig::default());
        let c = space.default_config();
        opt.observe(&c, f64::NAN);
        assert_eq!(opt.incoming[0].1, f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "population")]
    fn tiny_population_rejected() {
        let _ = GeneticAlgorithm::new(
            sphere_space(),
            GaConfig {
                population: 2,
                ..Default::default()
            },
        );
    }
}
