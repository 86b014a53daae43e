//! Cloud noise models (tutorial slides 70-71: "To Learn More … Get
//! Stable!", TUNA, duet benchmarking).
//!
//! Three noise sources the tutorial calls out, all reproducible here:
//!
//! * **machine heterogeneity** — each VM in a fleet has a persistent speed
//!   factor (noisy neighbours, silicon lottery), drawn log-normally;
//! * **temporal drift** — slow sinusoidal capacity change plus occasional
//!   step changes (co-tenant arrives/leaves);
//! * **spikes** — heavy-tailed transient latency events.
//!
//! The [`CloudNoise`] fleet hands out [`Machine`]s; a trial's effective
//! `machine_factor` combines all three, and *duet benchmarking* runs two
//! configs on the same machine at the same time so the factor cancels.

use rand::{Rng, RngCore, SeedableRng};
use rand_distr::{Distribution, LogNormal};
use serde::{Deserialize, Serialize};

/// Noise magnitudes.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NoiseConfig {
    /// σ of the log-normal machine-factor distribution (0 = homogeneous
    /// fleet).
    pub machine_sigma: f64,
    /// Amplitude of the slow temporal drift (fraction of nominal).
    pub drift_amplitude: f64,
    /// Probability a trial is hit by a transient spike.
    pub spike_probability: f64,
    /// Mean multiplicative size of a spike (Pareto-ish tail).
    pub spike_scale: f64,
}

impl Default for NoiseConfig {
    fn default() -> Self {
        NoiseConfig {
            machine_sigma: 0.12,
            drift_amplitude: 0.08,
            spike_probability: 0.05,
            spike_scale: 0.5,
        }
    }
}

impl NoiseConfig {
    /// A noiseless configuration (lab conditions).
    pub fn none() -> Self {
        NoiseConfig {
            machine_sigma: 0.0,
            drift_amplitude: 0.0,
            spike_probability: 0.0,
            spike_scale: 0.0,
        }
    }
}

/// Period of the temporal drift, in trial units.
const DRIFT_PERIOD: f64 = 60.0;

/// One machine in the fleet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Machine {
    /// Stable machine identifier.
    pub id: usize,
    /// Persistent speed factor (1.0 = nominal; > 1 = slower).
    pub base_factor: f64,
    /// Per-machine drift phase offset.
    drift_phase: f64,
}

/// A simulated fleet of cloud machines.
#[derive(Debug, Clone)]
pub struct CloudNoise {
    config: NoiseConfig,
    machines: Vec<Machine>,
}

impl CloudNoise {
    /// Builds a fleet of `n_machines` with factors drawn from the config's
    /// log-normal, deterministically from `seed`.
    pub fn new_fleet(n_machines: usize, config: NoiseConfig, seed: u64) -> Self {
        assert!(n_machines > 0, "fleet needs at least one machine");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dist =
            LogNormal::new(0.0, config.machine_sigma.max(1e-12)).expect("sigma validated positive"); // lint: allow(D5) sigma clamped positive on the same line
        let machines = (0..n_machines)
            .map(|id| Machine {
                id,
                base_factor: if config.machine_sigma > 0.0 {
                    dist.sample(&mut rng)
                } else {
                    1.0
                },
                drift_phase: rng.gen::<f64>() * std::f64::consts::TAU,
            })
            .collect();
        CloudNoise { config, machines }
    }

    /// Number of machines in the fleet.
    pub fn n_machines(&self) -> usize {
        self.machines.len()
    }

    /// A machine picked uniformly at random (what the cloud scheduler does
    /// to your trial).
    pub fn random_machine(&self, rng: &mut dyn RngCore) -> &Machine {
        &self.machines[rng.gen_range(0..self.machines.len())]
    }

    /// A machine by id (for duet benchmarking: pin both configs here).
    pub fn machine(&self, id: usize) -> &Machine {
        &self.machines[id]
    }

    /// Effective multiplicative slowdown for a trial on `machine` at time
    /// `t` (trial index). Deterministic except for the spike draw.
    pub fn factor_at(&self, machine: &Machine, t: f64, rng: &mut dyn RngCore) -> f64 {
        let drift = 1.0
            + self.config.drift_amplitude
                * (std::f64::consts::TAU * t / DRIFT_PERIOD + machine.drift_phase).sin();
        let spike = if rng.gen::<f64>() < self.config.spike_probability {
            // Pareto-ish: 1 + scale * (1/u - 1) capped to keep trials finite.
            let u: f64 = rng.gen::<f64>().max(0.02);
            1.0 + self.config.spike_scale * (1.0 / u - 1.0).min(10.0)
        } else {
            1.0
        };
        machine.base_factor * drift * spike
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;

    #[test]
    fn fleet_is_deterministic_per_seed() {
        let a = CloudNoise::new_fleet(8, NoiseConfig::default(), 42);
        let b = CloudNoise::new_fleet(8, NoiseConfig::default(), 42);
        for (ma, mb) in a.machines.iter().zip(&b.machines) {
            assert_eq!(ma, mb);
        }
        let c = CloudNoise::new_fleet(8, NoiseConfig::default(), 43);
        assert!(a
            .machines
            .iter()
            .zip(&c.machines)
            .any(|(x, y)| x.base_factor != y.base_factor));
    }

    #[test]
    fn noiseless_config_gives_unit_factors() {
        let fleet = CloudNoise::new_fleet(4, NoiseConfig::none(), 1);
        let mut rng = StdRng::seed_from_u64(2);
        for m in &fleet.machines {
            assert_eq!(m.base_factor, 1.0);
            let f = fleet.factor_at(m, 10.0, &mut rng);
            assert!((f - 1.0).abs() < 1e-12, "factor {f} should be exactly 1");
        }
    }

    #[test]
    fn machine_factors_are_heterogeneous() {
        let fleet = CloudNoise::new_fleet(50, NoiseConfig::default(), 3);
        let factors: Vec<f64> = fleet.machines.iter().map(|m| m.base_factor).collect();
        let sd = autotune_linalg::stats::std_dev(&factors);
        assert!(sd > 0.05, "fleet should be heterogeneous, sd = {sd}");
        assert!(factors.iter().all(|&f| f > 0.0));
    }

    #[test]
    fn drift_moves_factor_over_time() {
        let cfg = NoiseConfig {
            spike_probability: 0.0,
            ..Default::default()
        };
        let fleet = CloudNoise::new_fleet(1, cfg, 4);
        let m = fleet.machine(0);
        let mut rng = StdRng::seed_from_u64(5);
        let f0 = fleet.factor_at(m, 0.0, &mut rng);
        let f_quarter = fleet.factor_at(m, 15.0, &mut rng);
        assert!(
            (f0 - f_quarter).abs() > 1e-6,
            "drift should move the factor"
        );
    }

    #[test]
    fn spikes_are_rare_but_large() {
        let cfg = NoiseConfig {
            machine_sigma: 0.0,
            drift_amplitude: 0.0,
            spike_probability: 0.1,
            spike_scale: 1.0,
        };
        let fleet = CloudNoise::new_fleet(1, cfg, 6);
        let m = fleet.machine(0);
        let mut rng = StdRng::seed_from_u64(7);
        let factors: Vec<f64> = (0..2000)
            .map(|t| fleet.factor_at(m, t as f64, &mut rng))
            .collect();
        let spiked = factors.iter().filter(|&&f| f > 1.5).count();
        assert!(
            (50..600).contains(&spiked),
            "spike frequency off: {spiked}/2000"
        );
    }
}
