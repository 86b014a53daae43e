//! Particle swarm optimization (tutorial slide 50; Gad 2022).
//!
//! A population of particles moves through the unit cube, each attracted to
//! its own best position and the swarm's global best, with inertia. Simple,
//! derivative-free, embarrassingly parallel — a common choice for online
//! tuners with cheap trials.

use crate::{BestTracker, Observation, Optimizer};
use autotune_space::{Config, Space};
use rand::{Rng, RngCore};

/// Number of particles. This and the weights below are the standard
/// constricted swarm.
const N_PARTICLES: usize = 12;
const _: () = assert!(N_PARTICLES >= 2, "swarm needs at least two particles");
/// Inertia weight ω.
const INERTIA: f64 = 0.72;
/// Cognitive (personal-best) weight c₁.
const COGNITIVE: f64 = 1.49;
/// Social (global-best) weight c₂.
const SOCIAL: f64 = 1.49;
/// Maximum velocity per dimension (unit-cube units).
const V_MAX: f64 = 0.3;

#[derive(Debug, Clone)]
struct Particle {
    position: Vec<f64>,
    velocity: Vec<f64>,
    best_position: Vec<f64>,
    best_value: f64,
}

/// Particle-swarm optimizer over the unit encoding of a space.
#[derive(Debug)]
pub struct ParticleSwarm {
    space: Space,
    particles: Vec<Particle>,
    global_best: Option<(Vec<f64>, f64)>,
    /// Index of the particle whose position was last suggested.
    cursor: usize,
    initialized: bool,
    tracker: BestTracker,
}

impl ParticleSwarm {
    /// Creates a swarm over `space`.
    pub fn new(space: Space) -> Self {
        ParticleSwarm {
            space,
            particles: Vec::new(),
            global_best: None,
            cursor: 0,
            initialized: false,
            tracker: BestTracker::default(),
        }
    }

    fn init_swarm(&mut self, rng: &mut dyn RngCore) {
        let mut rng = rng;
        let d = self.space.len();
        self.particles = (0..N_PARTICLES)
            .map(|_| {
                let cfg = self.space.sample(&mut rng);
                let position = self
                    .space
                    .encode_unit(&cfg)
                    .expect("sampled config encodes"); // lint: allow(D5) sampled configs always encode
                let velocity: Vec<f64> = (0..d).map(|_| rng.gen_range(-V_MAX..V_MAX)).collect();
                Particle {
                    best_position: position.clone(),
                    best_value: f64::INFINITY,
                    position,
                    velocity,
                }
            })
            .collect();
        self.initialized = true;
        self.cursor = 0;
    }

    /// Advances particle `i` one step using current bests.
    #[expect(clippy::needless_range_loop, reason = "indexes three parallel vectors")]
    fn step_particle(&mut self, i: usize, rng: &mut dyn RngCore) {
        let gbest = match &self.global_best {
            Some((p, _)) => p.clone(),
            None => return, // nothing to be attracted to yet
        };
        let p = &mut self.particles[i];
        for d in 0..p.position.len() {
            let r1: f64 = rng.gen();
            let r2: f64 = rng.gen();
            let v = INERTIA * p.velocity[d]
                + COGNITIVE * r1 * (p.best_position[d] - p.position[d])
                + SOCIAL * r2 * (gbest[d] - p.position[d]);
            p.velocity[d] = v.clamp(-V_MAX, V_MAX);
            p.position[d] = (p.position[d] + p.velocity[d]).clamp(0.0, 1.0);
        }
    }
}

impl Optimizer for ParticleSwarm {
    fn suggest(&mut self, rng: &mut dyn RngCore) -> Config {
        if !self.initialized {
            self.init_swarm(rng);
        }
        let i = self.cursor;
        self.cursor = (self.cursor + 1) % self.particles.len();
        // Move the particle (no-op on the very first pass, before any
        // global best exists), then propose its position.
        self.step_particle(i, rng);
        self.space
            .decode_unit(&self.particles[i].position)
            .expect("particle positions have space dimension") // lint: allow(D5) particle positions have the space dimension
    }

    fn observe(&mut self, config: &Config, value: f64) {
        self.tracker.observe(config, value);
        if value.is_nan() {
            return;
        }
        let x = self
            .space
            .encode_unit(config)
            .expect("configs against this space encode"); // lint: allow(D5) observed configs originate from this space
                                                          // Attribute the observation to the nearest particle.
        if let Some((i, _)) = self
            .particles
            .iter()
            .enumerate()
            .map(|(i, p)| (i, autotune_linalg::squared_distance(&p.position, &x)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
        {
            let p = &mut self.particles[i];
            if value < p.best_value {
                p.best_value = value;
                p.best_position = x.clone();
            }
        }
        if self.global_best.as_ref().is_none_or(|(_, v)| value < *v) {
            self.global_best = Some((x, value));
        }
    }

    fn best(&self) -> Option<&Observation> {
        self.tracker.best()
    }

    fn space(&self) -> &Space {
        &self.space
    }

    fn name(&self) -> &str {
        "pso"
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
        let mut opt = ParticleSwarm::new(sphere_space());
        let best = run_loop(&mut opt, sphere, 240, 19);
        assert!(best < 0.02, "PSO best {best} after 240 trials");
    }

    #[test]
    fn velocities_bounded() {
        let mut opt = ParticleSwarm::new(sphere_space());
        run_loop(&mut opt, sphere, 60, 23);
        for p in &opt.particles {
            for &v in &p.velocity {
                assert!(v.abs() <= V_MAX + 1e-12);
            }
            for &x in &p.position {
                assert!((0.0..=1.0).contains(&x));
            }
        }
    }

    #[test]
    fn global_best_matches_tracker() {
        let mut opt = ParticleSwarm::new(sphere_space());
        run_loop(&mut opt, sphere, 50, 29);
        let (_, gv) = opt.global_best.clone().unwrap();
        assert!((gv - opt.best().unwrap().value).abs() < 1e-12);
    }

    #[test]
    fn nan_ignored() {
        let space = sphere_space();
        let mut opt = ParticleSwarm::new(space.clone());
        let mut rng = rand::rngs::mock::StepRng::new(0, 0x9E3779B97F4A7C15);
        let c = opt.suggest(&mut rng);
        opt.observe(&c, f64::NAN);
        assert!(opt.best().is_none());
        assert!(opt.global_best.is_none());
    }
}
